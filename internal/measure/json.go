package measure

import "encoding/json"

// JSON codecs for the measurement types. One encoder serves every consumer:
// the `wlansim -format json` CLI output and the wlansimd daemon's HTTP
// responses marshal through the same field tags and methods, so a client
// decoding a served series sees exactly the document an in-process run
// would have printed, and a point of the daemon's NDJSON stream is
// byte-identical to the matching entry of the final series document.
//
// Floating-point fields round-trip exactly: encoding/json emits the shortest
// decimal that parses back to the identical float64 bit pattern (including
// negative zero), so a decoded series is Float64bits-identical to the
// encoded one. NaN and infinities are not representable in JSON and fail to
// encode; measurement series never carry them.
//
// Point and Figure encode through their field tags. Series has its own
// codec because its cache statistics are written only when a stage cache
// ran.

// seriesJSON is the wire form of a Series.
type seriesJSON struct {
	Label  string      `json:"label"`
	XLabel string      `json:"x_label"`
	YLabel string      `json:"y_label"`
	Points []Point     `json:"points"`
	Cache  *CacheStats `json:"cache,omitempty"`
}

// MarshalJSON renders the series with its full point annotations (CI bounds,
// sample counts) and, when a stage cache ran, its CacheStats. A series
// without points encodes an empty points array.
func (s *Series) MarshalJSON() ([]byte, error) {
	out := seriesJSON{Label: s.Label, XLabel: s.XLabel, YLabel: s.YLabel, Points: s.Points}
	if out.Points == nil {
		out.Points = []Point{}
	}
	if s.Cache.Enabled {
		c := s.Cache
		out.Cache = &c
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores a series from its wire form. Points are adopted in
// their encoded order (the encoder wrote them X-sorted), not re-inserted
// through AddPoint, so a decoded series is field-for-field identical to the
// encoded one.
func (s *Series) UnmarshalJSON(data []byte) error {
	var in seriesJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	s.Label, s.XLabel, s.YLabel, s.Points = in.Label, in.XLabel, in.YLabel, in.Points
	s.Cache = CacheStats{}
	if in.Cache != nil {
		s.Cache = *in.Cache
	}
	return nil
}
