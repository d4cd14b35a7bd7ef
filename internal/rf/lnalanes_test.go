package rf

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"wlansim/internal/units"
)

// lnaLaneConfigs tunes the default receiver at the given oversampling into
// six lanes whose LNAs differ in model and nonlinearity, two of which also
// differ in the channel-select filter:
//
//	0  rx's LNA (Cubic via a -10 dBm compression point)
//	1  Cubic via a -32 dBm compression point, own filter
//	2  Cubic via a -20 dBm IIP3
//	3  Rapp via a -28 dBm compression point with 3 deg/dB AM/PM
//	4  Linear, 2 dB more gain, own filter
//	5  Linear, 30 dB more gain: the ADC clips until the AGC pulls down
func lnaLaneConfigs(oversample int) []ReceiverConfig {
	cfgs := make([]ReceiverConfig, 6)
	for l := range cfgs {
		cfg := DefaultReceiverConfig(oversample)
		cfg.AGC.InitialGainDB = -3
		cfgs[l] = cfg
	}
	cfgs[1].LNA.CompressionDBm = -32
	cfgs[1].ChannelFilterOrder = 7
	cfgs[1].ChannelFilterEdgeHz = 8e6
	cfgs[2].LNA.UseCompression = false
	cfgs[2].LNA.IIP3DBm = -20
	cfgs[3].LNA.Model = Rapp
	cfgs[3].LNA.CompressionDBm = -28
	cfgs[3].LNA.AMPMDegPerDB = 3
	cfgs[4].LNA.Model = Linear
	cfgs[4].LNA.GainDB += 2
	cfgs[4].ChannelFilterOrder = 3
	cfgs[4].ChannelFilterRippleDB = 1
	cfgs[5].LNA.Model = Linear
	cfgs[5].LNA.GainDB += 30
	return cfgs
}

// TestBatchReceiverLNALanesMatchSequential is the LNA-lane differential
// test: lane l of BatchReceiver.ProcessLanesInto on lanes whose LNAs differ
// must be bit-identical — baseband and ADC clip count — to Reset + Process on
// the sequential oracle built from the lane's own configuration that carries
// the same packet history. Covered: Cubic via compression point, Cubic via IIP3,
// Rapp with AM/PM and Linear LNAs mixed in one group, lanes that also
// differ in the filter, oversampling 1 and 3, a lane whose ADC clips, a
// lane that sits out one packet and rejoins, and a lane that drops out
// mid-run, over packets of several lengths, with the receiver's noise on
// and off. Most lanes read one shared source, which must stay unchanged.
func TestBatchReceiverLNALanesMatchSequential(t *testing.T) {
	amp := math.Sqrt(units.DBmToWatts(-38) / 2)
	lengths := []int{100, 3*laneBlock + 17, 1700}
	for _, sc := range []struct {
		os    int
		quiet bool
	}{{1, false}, {3, false}, {3, true}} {
		os := sc.os
		cfgs := lnaLaneConfigs(os)
		for l := range cfgs {
			cfgs[l].DisableNoise = sc.quiet
		}
		rx, err := NewReceiver(cfgs[0])
		if err != nil {
			t.Fatal(err)
		}
		lanes, err := NewLaneReceiver(rx, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		seq := make([]*oracleReceiver, len(cfgs))
		for l := range seq {
			if seq[l], err = newOracleReceiver(cfgs[l]); err != nil {
				t.Fatal(err)
			}
		}
		var dst [][]complex128
		clipped := make([]int, len(cfgs))
		for pkt := 0; pkt < 6; pkt++ {
			n := os * lengths[pkt%len(lengths)]
			// Lane 2 drops out after the third packet, lane 4 sits out
			// the second and rejoins.
			var ids []int
			for l := range cfgs {
				if (l == 2 && pkt >= 3) || (l == 4 && pkt == 1) {
					continue
				}
				ids = append(ids, l)
			}
			// Lanes of one sweep share the antenna waveform, one slice the
			// entry only reads; lane 3 gets a frame of its own so the entry
			// cannot lean on equal inputs.
			shared := batchFrames(int64(10*os+pkt), 1, n, amp)[0]
			pristine := append([]complex128(nil), shared...)
			frames := make([][]complex128, len(ids))
			for k, id := range ids {
				frames[k] = shared
				if id == 3 {
					frames[k] = batchFrames(int64(100*os+pkt), 1, n, amp)[0]
				}
			}
			want := make([][]complex128, len(ids))
			for k, id := range ids {
				seq[id].Reset()
				want[k] = append([]complex128(nil), seq[id].Process(append([]complex128(nil), frames[k]...))...)
			}
			dst = lanes.ProcessLanesInto(dst, ids, frames)
			if !reflect.DeepEqual(shared, pristine) {
				t.Fatalf("os=%d quiet=%v pkt=%d: the antenna entry wrote its shared source", os, sc.quiet, pkt)
			}
			for k, id := range ids {
				where := fmt.Sprintf("os=%d quiet=%v pkt=%d lane %d", os, sc.quiet, pkt, id)
				if len(dst[k]) != len(want[k]) {
					t.Fatalf("%s: lanes len %d != receiver len %d", where, len(dst[k]), len(want[k]))
				}
				for i := range want[k] {
					if math.Float64bits(real(dst[k][i])) != math.Float64bits(real(want[k][i])) ||
						math.Float64bits(imag(dst[k][i])) != math.Float64bits(imag(want[k][i])) {
						t.Fatalf("%s sample %d: lanes %v != receiver %v", where, i, dst[k][i], want[k][i])
					}
				}
				if c := lanes.ClippedSamples(id); c != seq[id].ADCClippedSamples() {
					t.Fatalf("%s: lanes clipped %d != receiver %d", where, c, seq[id].ADCClippedSamples())
				}
				clipped[id] += lanes.ClippedSamples(id)
			}
			// Lanes 0, 2 and 5 share the filter and the antenna frame, so
			// only their LNAs can tell them apart.
			if pkt == 0 && (reflect.DeepEqual(want[0], want[2]) || reflect.DeepEqual(want[0], want[5])) {
				t.Errorf("os=%d quiet=%v: lanes with different LNAs gave equal basebands; the scenario lost its point", os, sc.quiet)
			}
		}
		if clipped[5] == 0 {
			t.Errorf("os=%d quiet=%v: the hot lane never clipped", os, sc.quiet)
		}
	}
}

// TestBatchReceiverLNALanesRejectSharedBlocks pins what lanes must share:
// the LNA's noise (noise figure, sample rate, seed, disable switch), every
// mixer field and the DC block. Every field of both mixers and their LOs is
// perturbed in turn, and each such lane must be refused.
func TestBatchReceiverLNALanesRejectSharedBlocks(t *testing.T) {
	rx, err := NewReceiver(lnaLaneConfigs(3)[0])
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]func(*ReceiverConfig){
		"LNA noise figure":  func(c *ReceiverConfig) { c.LNA.NoiseFigureDB = 3 },
		"LNA noise seed":    func(c *ReceiverConfig) { c.LNA.NoiseSeed = 7 },
		"LNA sample rate":   func(c *ReceiverConfig) { c.LNA.SampleRateHz /= 2 },
		"LNA noise off":     func(c *ReceiverConfig) { c.LNA.DisableNoise = true },
		"receiver noise":    func(c *ReceiverConfig) { c.DisableNoise = true },
		"DC block corner":   func(c *ReceiverConfig) { c.DCBlockCornerHz = 100e3 },
		"Mixer1 without LO": func(c *ReceiverConfig) { c.Mixer1.LO = nil },
	}
	for _, mixer := range []string{"Mixer1", "Mixer2"} {
		fields := reflect.TypeOf(MixerConfig{})
		for i := 0; i < fields.NumField(); i++ {
			f := fields.Field(i)
			if f.Type == reflect.TypeOf(&LOConfig{}) {
				lo := reflect.TypeOf(LOConfig{})
				for j := 0; j < lo.NumField(); j++ {
					rows[mixer+".LO."+lo.Field(j).Name] = func(c *ReceiverConfig) {
						m := reflect.ValueOf(c).Elem().FieldByName(mixer)
						cp := *m.FieldByName(f.Name).Interface().(*LOConfig)
						perturb(reflect.ValueOf(&cp).Elem().Field(j))
						m.FieldByName(f.Name).Set(reflect.ValueOf(&cp))
					}
				}
				continue
			}
			rows[mixer+"."+f.Name] = func(c *ReceiverConfig) {
				perturb(reflect.ValueOf(c).Elem().FieldByName(mixer).Field(i))
			}
		}
	}
	for name, tune := range rows {
		cfgs := lnaLaneConfigs(3)
		tune(&cfgs[2])
		if _, err := NewLaneReceiver(rx, cfgs); err == nil {
			t.Errorf("%s: a lane differing in a shared block was accepted", name)
		}
	}
	bad := lnaLaneConfigs(3)
	bad[2].LNA.Model = Rapp
	bad[2].LNA.UseCompression = false
	if _, err := NewLaneReceiver(rx, bad); err == nil {
		t.Error("a lane with an invalid LNA was accepted")
	}
	if _, err := NewLaneReceiver(rx, lnaLaneConfigs(3)); err != nil {
		t.Errorf("LNA lanes rejected: %v", err)
	}
	// The receiver-wide noise switch holds for every lane alike.
	quiet := lnaLaneConfigs(3)
	for l := range quiet {
		quiet[l].DisableNoise = true
	}
	qrx, err := NewReceiver(quiet[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLaneReceiver(qrx, quiet); err != nil {
		t.Errorf("noiseless LNA lanes rejected: %v", err)
	}
}

// perturb changes a scalar configuration field to a different valid-looking
// value.
func perturb(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Int64, reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "'")
	default:
		panic("perturb: unsupported kind " + v.Kind().String())
	}
}

// TestBatchReceiverLNALanesFromFilterPanics pins that the pre-filter entry
// refuses lanes with their own LNA: its waveform has passed rx's LNA already.
func TestBatchReceiverLNALanesFromFilterPanics(t *testing.T) {
	cfgs := lnaLaneConfigs(1)
	rx, err := NewReceiver(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := NewLaneReceiver(rx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("pre-filter entry ran lanes with their own LNA")
		}
	}()
	src := make([]complex128, 64)
	lanes.ProcessFromFilterInto(nil, []int{0}, [][]complex128{src})
}

// TestBatchReceiverLNALanesAllocFree pins the steady state of the antenna
// entry with per-lane LNAs: once the lane scratch and the destination are
// sized, a packet through the lanes allocates nothing.
func TestBatchReceiverLNALanesAllocFree(t *testing.T) {
	cfgs := lnaLaneConfigs(3)
	rx, err := NewReceiver(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := NewLaneReceiver(rx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2, 3, 4, 5}
	frames := batchFrames(11, len(ids), 3*700, math.Sqrt(units.DBmToWatts(-38)/2))
	work := cloneFrames(frames)
	dst := lanes.ProcessLanesInto(nil, ids, work)
	allocs := testing.AllocsPerRun(20, func() {
		for l := range work {
			copy(work[l], frames[l])
		}
		dst = lanes.ProcessLanesInto(dst, ids, work)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ProcessLanesInto with per-lane LNAs allocates %v times per packet", allocs)
	}
}
