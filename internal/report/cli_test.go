package report

import (
	"strings"
	"testing"
)

func TestParseCores(t *testing.T) {
	got, err := ParseCores("bench-cores", "1, 2,4")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("ParseCores = %v", got)
	}
	if _, err := ParseCores("bench-cores", "1,zero"); err == nil {
		t.Fatal("bad core count must fail")
	}
	if _, err := ParseCores("bench-cores", "0"); err == nil {
		t.Fatal("non-positive core count must fail")
	}
	if _, err := ParseCores("bench-cores", ""); err == nil {
		t.Fatal("empty list must fail")
	}
	// The error names the flag the list came from.
	if _, err := ParseCores("bench-chips", "0"); err == nil || !strings.Contains(err.Error(), "in -bench-chips") {
		t.Fatalf("chip list error %v does not name -bench-chips", err)
	}
}

func TestFormatBytes(t *testing.T) {
	for _, tc := range []struct {
		in   uint64
		want string
	}{
		{512, "512B"},
		{2048, "2.00KiB"},
		{3 << 20, "3.00MiB"},
		{5 << 30, "5.00GiB"},
	} {
		if got := FormatBytes(tc.in); got != tc.want {
			t.Fatalf("FormatBytes(%d) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
