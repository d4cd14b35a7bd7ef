package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"wlansim/internal/kernels"
	"wlansim/internal/phy"
	"wlansim/internal/service"
)

// environment stamps a result with everything that decides whether two
// results may be compared. Results whose "comparable" keys differ ran on
// different kernel tiers, OFDM paths or processor counts and must not be
// compared; README.md's A/B procedure refuses such pairs.
func environment() map[string]any {
	return map[string]any{
		"dispatch":         kernels.DispatchName(),
		"simd_width":       kernels.SIMDWidth(),
		"symbol_major":     phy.SymbolMajorEnabled(),
		"WLANSIM_SIMD":     os.Getenv("WLANSIM_SIMD"),
		"WLANSIM_SYMMAJOR": os.Getenv("WLANSIM_SYMMAJOR"),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"nproc":            runtime.NumCPU(),
		"cpu_model":        cpuModel(),
		"go_version":       runtime.Version(),
		"commit":           commit(),
		"source_digest":    sourceDigest(),
		"code_version":     service.CodeVersion,
		"comparable":       comparableKey(),
	}
}

// comparableKey is equal for two runs exactly when their timings may be
// compared: same kernel tier and width, same OFDM path, same processor
// count and CPU model.
func comparableKey() string {
	return fmt.Sprintf("dispatch=%s/%d symmajor=%t gomaxprocs=%d cpu=%s",
		kernels.DispatchName(), kernels.SIMDWidth(), phy.SymbolMajorEnabled(),
		runtime.GOMAXPROCS(0), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	if c := os.Getenv("WLANBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module file of the simulator tree
// the benchmark was built from, so results from a checkout without git
// history still identify the code they measured.
func sourceDigest() string {
	root := os.Getenv("WLANBENCH_ROOT")
	if root == "" {
		return "unknown"
	}
	h := fnv.New64a()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "wlanbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".s") && d.Name() != "go.mod" {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
