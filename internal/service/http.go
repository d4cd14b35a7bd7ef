package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"wlansim/internal/measure"
)

// HTTP API of wlansimd. All bodies are JSON; the stream endpoint is NDJSON.
//
//	POST /v1/jobs            submit a SweepSpec -> 202 JobStatus
//	                         (400 invalid spec or data after it,
//	                          413 body over MaxSpecBytes,
//	                          429 + Retry-After queue full, 503 draining)
//	GET  /v1/jobs            list JobStatus, submission order (series omitted)
//	GET  /v1/jobs/{id}       one JobStatus; ?wait=1 blocks until terminal
//	GET  /v1/jobs/{id}/stream  NDJSON: one line per completed point in Values
//	                         order as each completes, then one status line
//	GET  /v1/stats           StatsSnapshot (jobs, queue, store, dispatch)

// streamLine is one NDJSON record of the stream endpoint: either a point
// (index + wire-form point) or the terminal status record.
type streamLine struct {
	Index  int            `json:"index"`
	Point  *measure.Point `json:"point,omitempty"`
	Status *JobStatus     `json:"status,omitempty"`
}

// MaxSpecBytes bounds the body of POST /v1/jobs. A spec of MaxPoints
// explicit values, each written at full float64 precision, takes about
// 100 KiB, so every valid spec fits.
const MaxSpecBytes = 256 << 10

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// NewHandler wires the Manager into an http.Handler.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec SweepSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
		dec.DisallowUnknownFields()
		err := dec.Decode(&spec)
		if err == nil {
			// Decode reads one value; anything but whitespace after it
			// makes the body something other than one spec.
			if _, err = dec.Token(); err == io.EOF {
				err = nil
			} else if err == nil {
				err = errors.New("trailing data after the spec")
			}
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("spec body exceeds %d bytes", tooLarge.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding spec: %w", err))
			return
		}
		job, err := m.Submit(spec)
		if err != nil {
			var se *SpecError
			var be *BusyError
			switch {
			case errors.As(err, &se):
				writeError(w, http.StatusBadRequest, err)
			case errors.As(err, &be):
				w.Header().Set("Retry-After", strconv.Itoa(be.RetryAfter))
				writeError(w, http.StatusTooManyRequests, err)
			case errors.Is(err, ErrClosed):
				writeError(w, http.StatusServiceUnavailable, err)
			default:
				writeError(w, http.StatusInternalServerError, err)
			}
			return
		}
		writeJSON(w, http.StatusAccepted, job.Snapshot())
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := m.Jobs()
		out := make([]JobStatus, len(jobs))
		for i, j := range jobs {
			st := j.Snapshot()
			st.Series = nil // the listing stays light; fetch one job for data
			out[i] = st
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		if r.URL.Query().Get("wait") != "" {
			for {
				_, state, updated := job.PointsSince(0)
				if state.Done() {
					break
				}
				select {
				case <-updated:
				case <-r.Context().Done():
					writeError(w, http.StatusRequestTimeout, r.Context().Err())
					return
				}
			}
		}
		writeJSON(w, http.StatusOK, job.Snapshot())
	})

	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		sent := 0
		for {
			pts, state, updated := job.PointsSince(sent)
			for i := range pts {
				p := pts[i]
				if err := enc.Encode(streamLine{Index: sent, Point: &p}); err != nil {
					return
				}
				sent++
			}
			if flusher != nil && len(pts) > 0 {
				flusher.Flush()
			}
			if state.Done() {
				st := job.Snapshot()
				enc.Encode(streamLine{Status: &st})
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
			select {
			case <-updated:
			case <-r.Context().Done():
				return
			}
		}
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Stats())
	})

	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}
