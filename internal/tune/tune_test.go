package tune

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParamsTuning(t *testing.T) {
	tun, err := Params{}.Tuning()
	if err != nil {
		t.Fatal(err)
	}
	if tun.Lookahead != 0 {
		t.Fatalf("zero Params must resolve to the untuned default, got %+v", tun)
	}
	tun, err = Params{Lookahead: 3}.Tuning()
	if err != nil {
		t.Fatal(err)
	}
	if tun.Lookahead != 3 {
		t.Fatalf("Params{Lookahead: 3} resolved to %+v", tun)
	}
	if _, err := (Params{Lookahead: -1}).Tuning(); err == nil {
		t.Fatal("negative lookahead must be rejected")
	}
}

func TestFileRoundTripAndHostMatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "TUNE.json")
	f := &File{
		Host:       CurrentHost(),
		Candidates: 18,
		Reps:       3,
		Gemm:       &Entry{Params: Params{Q: 32, Lookahead: 2}, GFlops: 4.2, BaselineGFlops: 3.9},
		LU:         &Entry{Params: Params{Q: 32, Lookahead: 1}},
	}
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.MatchesHost() {
		t.Fatal("a file stamped with CurrentHost must match the current host")
	}
	if got.Gemm == nil || got.Gemm.Params != f.Gemm.Params || got.Gemm.GFlops != f.Gemm.GFlops {
		t.Fatalf("gemm entry round-tripped to %+v", got.Gemm)
	}
	if got.LU == nil || got.LU.Params != f.LU.Params {
		t.Fatalf("lu entry round-tripped to %+v", got.LU)
	}

	// A foreign host must not match, whichever key differs.
	foreign := *got
	foreign.Host.CPUModel = "some other machine"
	if foreign.MatchesHost() {
		t.Fatal("different CPU model must not match")
	}
	foreign = *got
	foreign.Host.GoMaxProcs++
	if foreign.MatchesHost() {
		t.Fatal("different GOMAXPROCS must not match")
	}
	// The go version is provenance, not a key.
	versioned := *got
	versioned.Host.GoVersion = "go0.0"
	if !versioned.MatchesHost() {
		t.Fatal("a toolchain bump must not orphan the tuning")
	}
}

func writeFile(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file must error")
	}
	for _, tc := range []struct{ name, body, want string }{
		// A file written when the kernel shape was a tunable.
		{"shape.json", `{"gemm": {"shape": "4x4", "q": 32, "lookahead": 2}}`, `"shape"`},
		{"misspelt.json", `{"gemm": {"lookahaed": 3, "q": 32}}`, `"lookahaed"`},
		{"brace.json", `{"gemm": {"q": 32}}}`, "data after the document"},
		{"bracket.json", `{"gemm": {"q": 32}} ]`, "data after the document"},
		{"second.json", `{"gemm": {"q": 32}} {}`, "data after the document"},
	} {
		_, err := Load(writeFile(t, dir, tc.name, tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: want an error containing %s, got %v", tc.name, tc.want, err)
		}
	}
}

// The committed record must load under the strict decoder.
func TestCommittedFileLoads(t *testing.T) {
	f, err := Load(filepath.Join("..", "..", "TUNE.json"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Gemm == nil || f.LU == nil || f.Gemm.Q == 0 || f.LU.Q == 0 {
		t.Fatalf("committed TUNE.json lost an entry: %+v", f)
	}
}

func TestResolve(t *testing.T) {
	dir := t.TempDir()
	here := &File{
		Host: CurrentHost(),
		Gemm: &Entry{Params: Params{Q: 64, Lookahead: 3}},
		LU:   &Entry{Params: Params{Q: 16, Lookahead: 2}},
	}
	local := filepath.Join(dir, "local.json")
	if err := here.WriteFile(local); err != nil {
		t.Fatal(err)
	}
	away := *here
	away.Host.CPUModel = "some other machine"
	foreign := filepath.Join(dir, "foreign.json")
	if err := away.WriteFile(foreign); err != nil {
		t.Fatal(err)
	}
	gemm := func(f *File) *Entry { return f.Gemm }
	lu := func(f *File) *Entry { return f.LU }

	// Flag values: -lookahead 0 and -q 32 are the commands' defaults.
	for _, tc := range []struct {
		name  string
		path  string
		entry func(*File) *Entry
		set   []string
		la, q int
		want  Params
		warn  bool
	}{
		{name: "no file, defaults", la: 0, q: 32, entry: gemm, want: Params{Q: 32}},
		{name: "explicit flags beat the file", path: local, entry: gemm,
			set: []string{"lookahead", "q"}, la: 1, q: 8, want: Params{Q: 8, Lookahead: 1}},
		{name: "host-matched file fills unset flags", path: local, entry: gemm,
			q: 32, want: Params{Q: 64, Lookahead: 3}},
		{name: "file reads the chosen entry", path: local, entry: lu,
			q: 32, want: Params{Q: 16, Lookahead: 2}},
		{name: "file's q only when -q is unset", path: local, entry: gemm,
			set: []string{"q"}, q: 32, want: Params{Q: 32, Lookahead: 3}},
		{name: "foreign file warns and is ignored", path: foreign, entry: gemm,
			q: 32, want: Params{Q: 32}, warn: true},
	} {
		set := map[string]bool{}
		for _, s := range tc.set {
			set[s] = true
		}
		var w strings.Builder
		got, err := Resolve(&w, "gemm", tc.path, tc.entry, set, tc.la, tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: resolved %+v, want %+v", tc.name, got, tc.want)
		}
		warned := strings.Contains(w.String(), "gemm: "+foreign+" was tuned on a different host; ignoring it")
		if warned != tc.warn || (!tc.warn && w.Len() > 0) {
			t.Errorf("%s: warning %q, want warning %v", tc.name, w.String(), tc.warn)
		}
	}
	if _, err := Resolve(&strings.Builder{}, "gemm", filepath.Join(dir, "absent.json"), gemm, nil, 0, 32); err == nil {
		t.Fatal("a missing file must be an error")
	}
}
