// Command wlansimd is the sweep service daemon: a long-running HTTP/JSON
// server that accepts sweep specs as jobs, shards their points across a
// bounded worker pool built on the in-process sweep executor, streams
// completed prefixes back to clients, and persists finished points in a
// content-addressed result store so repeated or overlapping sweeps only
// compute points no prior run has produced.
//
// Usage:
//
//	wlansimd [-addr :8823] [-store-dir DIR] [-mem-bytes N]
//	         [-workers N] [-queue N] [-job-workers N] [-sync-every N]
//
// API (see internal/service):
//
//	POST /v1/jobs            submit a sweep spec
//	GET  /v1/jobs            list jobs
//	GET  /v1/jobs/{id}       job status (+series when done); ?wait=1 blocks
//	GET  /v1/jobs/{id}/stream  NDJSON completed-point stream
//	GET  /v1/stats           service counters
//	GET  /debug/vars         expvar (includes the same counters)
//
// Determinism contract: a served series is byte-identical (Float64bits) to
// the same spec run in-process — workers, lane grouping, the store and
// caches change wall-clock only. SIGINT/SIGTERM drains: accepted jobs
// finish, the store is flushed, then the listener closes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wlansim/internal/service"
	"wlansim/internal/service/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wlansimd:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("wlansimd", flag.ExitOnError)
	addr := fs.String("addr", ":8823", "listen address")
	storeDir := fs.String("store-dir", "", "directory for the on-disk result store (empty = memory only)")
	memBytes := fs.Int64("mem-bytes", store.DefaultMemoryBytes, "memory-tier byte budget of the result store")
	workers := fs.Int("workers", 2, "concurrently executing jobs")
	queue := fs.Int("queue", 16, "accepted-but-unstarted job bound (429 beyond it)")
	jobWorkers := fs.Int("job-workers", 0, "sweep workers inside one job (0 = all CPUs)")
	syncEvery := fs.Int("sync-every", store.DefaultSyncEvery, "fsync the segment every N appends")
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse never returns an error

	// Assemble the store: memory LRU front, optionally disk-backed.
	var st store.Store = store.NewMemory(*memBytes)
	if *storeDir != "" {
		disk, err := store.OpenDisk(*storeDir, *syncEvery)
		if err != nil {
			return fmt.Errorf("opening result store: %w", err)
		}
		st = store.NewTiered(store.NewMemory(*memBytes), disk)
		fmt.Fprintf(os.Stderr, "wlansimd: result store %s: %d points recovered\n",
			*storeDir, disk.Stats().Entries)
	}

	// The service's injected monotonic clock: elapsed time since daemon
	// start. cmd/ is the composition root where reading the wall clock is
	// legitimate; internal/service itself never calls time.Now.
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }

	mgr := service.New(service.Config{
		Store:      st,
		Workers:    *workers,
		QueueDepth: *queue,
		JobWorkers: *jobWorkers,
		Clock:      clock,
	})

	// expvar is published here, not in the library, so tests can build
	// many Managers without tripping expvar's duplicate-name panic.
	expvar.Publish("wlansimd", expvar.Func(func() any { return mgr.Stats() }))

	mux := http.NewServeMux()
	mux.Handle("/v1/", service.NewHandler(mgr))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
	srv := &http.Server{Addr: *addr, Handler: mux}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wlansimd: listening on %s (workers %d, queue %d)\n",
		ln.Addr(), *workers, *queue)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "wlansimd: %v: draining\n", sig)
	case err := <-errc:
		return err
	}

	// Graceful drain: stop accepting, finish accepted jobs, flush the
	// store, then close in-flight HTTP exchanges.
	if err := mgr.Drain(); err != nil {
		fmt.Fprintln(os.Stderr, "wlansimd: store flush:", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wlansimd: drained")
	return nil
}
