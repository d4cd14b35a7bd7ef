package lint

import (
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// TestLoaderSelectsHostFiles pins the loader's file selection to the go
// tool's for the host platform: platform-suffixed files load only on their
// GOOS or GOARCH, constrained files only when their tags hold (purego and
// ignore never do in a default build), and test files never. On amd64 and
// arm64 hosts every file that must stay out breaks the type-check if loaded:
// the other architecture's file and the purego file redeclare tier, the
// ignore file is another package, and the test file holds a type error.
func TestLoaderSelectsHostFiles(t *testing.T) {
	_, pkgs := loadTempModule(t, "fixture.example/sel", map[string]string{
		"sel.go":       "package sel\n\nconst name = \"sel\"\n",
		"x_amd64.go":   "package sel\n\nconst tier = \"amd64\"\n",
		"x_arm64.go":   "package sel\n\nconst tier = \"arm64\"\n",
		"x_windows.go": "package sel\n\nconst goos = \"windows\"\n",
		"x_purego.go":  "//go:build purego\n\npackage sel\n\nconst tier = \"purego\"\n",
		"gen.go":       "//go:build ignore\n\npackage main\n\nfunc main() {}\n",
		"sel_test.go":  "package sel\n\nvar _ int = \"not an int\"\n",
	})
	if len(pkgs) != 1 || pkgs[0].Path != "fixture.example/sel" {
		t.Fatalf("loaded %d packages, want exactly fixture.example/sel", len(pkgs))
	}
	want := []string{"sel.go"}
	switch runtime.GOARCH {
	case "amd64", "arm64":
		want = append(want, "x_"+runtime.GOARCH+".go")
	}
	if runtime.GOOS == "windows" {
		want = append(want, "x_windows.go")
	}
	var got []string
	for _, f := range pkgs[0].Files {
		got = append(got, filepath.Base(pkgs[0].Fset.Position(f.Package).Filename))
	}
	if !slices.Equal(got, want) {
		t.Errorf("loaded files %v, want %v", got, want)
	}
}

// TestLoadersShareStdImporter loads two modules on two goroutines at once.
// Both import the same standard packages, which must come from the one
// shared importer: the same *types.Package in both loads.
func TestLoadersShareStdImporter(t *testing.T) {
	const src = "package a\n\nimport (\n\t\"container/ring\"\n\t\"text/tabwriter\"\n)\n\nvar _ = ring.New\nvar _ = tabwriter.NewWriter\n"
	dirs := []string{
		writeTempModule(t, "fixture.example/a", map[string]string{"a.go": src}),
		writeTempModule(t, "fixture.example/b", map[string]string{"a.go": src}),
	}
	pkgs := make([][]*Package, len(dirs))
	errs := make([]error, len(dirs))
	var wg sync.WaitGroup
	for i, dir := range dirs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkgs[i], errs[i] = LoadPackages(dir, []string{"./..."})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil || len(pkgs[i]) != 1 {
			t.Fatalf("load %d: %d packages, %v", i, len(pkgs[i]), err)
		}
	}
	a, b := pkgs[0][0].TPkg.Imports(), pkgs[1][0].TPkg.Imports()
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("imports %v and %v, want two each", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s imported twice: the loads did not share the importer", a[i].Path())
		}
	}
}
