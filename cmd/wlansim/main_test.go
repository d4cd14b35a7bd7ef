package main

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The command handlers are exercised directly (no subprocess); each must
// run its fast path without error.

func TestCmdVersion(t *testing.T) {
	cmdVersion() // must not panic; output is the dispatch identity banner
}

func TestCmdCascade(t *testing.T) {
	if err := cmdCascade(nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmdBER(t *testing.T) {
	for _, fe := range []string{"behavioral", "blackbox"} {
		if err := cmdBER([]string{"-frontend", fe, "-packets", "1", "-len", "40"}); err != nil {
			t.Fatalf("-frontend %s: %v", fe, err)
		}
	}
	if err := cmdBER([]string{"-frontend", "bogus"}); err == nil {
		t.Error("accepted bogus front end")
	}
}

func TestCmdSpectrum(t *testing.T) {
	if err := cmdSpectrum([]string{"-points", "8"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdMask(t *testing.T) {
	if err := cmdMask(nil); err != nil {
		t.Fatal(err)
	}
	// Clipping the power at 5% of its peak regrows the spectrum past the
	// mask: the failed check is an error.
	if err := cmdMask([]string{"-clip", "0.05"}); err == nil {
		t.Fatal("mask check of a waveform clipped at 5% of its peak power passed")
	}
}

func TestCmdGraph(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "sch.dot")
	if err := cmdGraph([]string{"-packets", "1", "-len", "40", "-dot", dot}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dot); err != nil {
		t.Errorf("DOT file not written: %v", err)
	}
}

func TestCmdCaptureDecode(t *testing.T) {
	file := filepath.Join(t.TempDir(), "cap.iq")
	if err := cmdCapture([]string{"-out", file, "-packets", "1", "-len", "40", "-snr", "25"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecode([]string{"-in", file, "-psd"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecode([]string{"-in", filepath.Join(t.TempDir(), "missing.iq")}); err == nil {
		t.Error("accepted a missing input file")
	}
}

func TestCmdEVM(t *testing.T) {
	if err := cmdEVM([]string{"-packets", "1", "-len", "40", "-points", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdFig5CSV(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "fig5.csv")
	if err := cmdFig5([]string{"-packets", "1", "-points", "2", "-csv", csv}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(csv); err != nil {
		t.Errorf("CSV not written: %v", err)
	}
}

func TestCmdRFCheck(t *testing.T) {
	if err := cmdRFCheck(nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmdReportFailIsError(t *testing.T) {
	// At -100 dBm the nominal link loses its packets, so the report reads
	// FAIL and the command must fail with it.
	err := cmdReport([]string{"-power", "-100", "-packets", "2", "-len", "40"})
	if err == nil || !strings.Contains(err.Error(), "nominal link") {
		t.Fatalf("failing report returned %v, want an error naming the nominal link", err)
	}
}

// TestCmdRejectsUnusedFlags pins the shared-flag rule: a shared scenario
// flag the command does not read is a usage error naming the flag, raised
// before anything runs.
func TestCmdRejectsUnusedFlags(t *testing.T) {
	for _, row := range []struct {
		name string
		cmd  func([]string) error
		args []string
		flag string
	}{
		{"fig5 -power", cmdFig5, []string{"-power", "-50", "-packets", "1"}, "-power"},
		{"fig5 -rate", cmdFig5, []string{"-rate", "6"}, "-rate"},
		{"fig6 -adjacent", cmdFig6, []string{"-adjacent"}, "-adjacent"},
		{"ip3 -len", cmdIP3, []string{"-len", "40"}, "-len"},
		{"evm -adjacent", cmdEVM, []string{"-adjacent"}, "-adjacent"},
		{"table2 -packets", cmdTable2, []string{"-packets", "1"}, "-packets"},
		{"waterfall -rate", cmdWaterfall, []string{"-rate", "54"}, "-rate"},
		{"ber -workers", cmdBER, []string{"-workers", "2"}, "-workers"},
	} {
		err := row.cmd(row.args)
		if err == nil || !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), row.flag) {
			t.Errorf("%s: got %v, want a usage error naming %s", row.name, err, row.flag)
		}
	}
}

// TestTable2Counts pins Table 2's rows to the powers of two up to -max, and
// a -max below 1 to a usage error raised before anything is timed.
func TestTable2Counts(t *testing.T) {
	for _, row := range []struct {
		max  int
		want []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{3, []int{1, 2}},
		{4, []int{1, 2, 4}},
		{8, []int{1, 2, 4, 8}},
		{16, []int{1, 2, 4, 8, 16}},
	} {
		got, err := table2Counts(row.max)
		if err != nil || !slices.Equal(got, row.want) {
			t.Errorf("-max %d: rows %v (%v), want %v", row.max, got, err, row.want)
		}
	}
	// The doubling stops at overflow: 2^0 through 2^62.
	if got, err := table2Counts(math.MaxInt); err != nil || len(got) != 63 {
		t.Errorf("-max MaxInt: %d rows (%v), want 63", len(got), err)
	}
	for _, max := range []string{"0", "-1"} {
		err := cmdTable2([]string{"-max", max})
		if err == nil || !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), "-max") {
			t.Errorf("-max %s: got %v, want a usage error naming -max", max, err)
		}
	}
}
