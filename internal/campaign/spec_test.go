package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     string // error substring; "" = accepted
	}{
		{"minimal", `{"name":"a","figures":["fig7a"]}`, ""},
		{"trailing whitespace", "{\"name\":\"a\",\"runs\":2,\"figures\":[\"fig7a\"]}\n\t \n", ""},
		{"showcases only", `{"name":"a","hazard_seeds":1,"curve":true}`, ""},
		{"second spec", `{"name":"a","figures":["fig7a"]} {"name":"b","runs":-1}`, "data after"},
		{"trailing garbage", `{"name":"a","figures":["fig7a"]}x`, "data after"},
		{"stray brace", `{"name":"a","figures":["fig7a"]}}`, "data after"},
		{"unknown field", `{"name":"a","figures":["fig7a"],"seeds":3}`, "unknown field"},
		{"negative runs", `{"name":"a","runs":-1,"figures":["fig7a"]}`, "negative"},
		{"unknown figure", `{"name":"a","figures":["fig99"]}`, "unknown figure"},
		{"empty", ``, "parsing spec"},
		{"not an object", `[1,2]`, "parsing spec"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := parseSpec([]byte(tc.in))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want == "" && sp.Runs < 1:
				t.Fatalf("runs not defaulted: %+v", sp)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

// FuzzSpec feeds arbitrary bytes as a campaign spec. Parsing must never
// panic, and any spec it accepts must be valid and enumerate cells.
func FuzzSpec(f *testing.F) {
	bundled, _ := filepath.Glob(filepath.Join("..", "..", "campaigns", "*.json"))
	for _, p := range bundled {
		if b, err := os.ReadFile(p); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(`{"name":"a","figures":["fig7a"]} {"name":"b","runs":-1}`))
	f.Add([]byte(`{"name":"a","runs":3,"figures":["all"],"hazard_seeds":2,"curve":true,"tables":true}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		sp, err := parseSpec(b)
		if err != nil {
			return
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("accepted spec fails Validate: %v", err)
		}
		// Enumeration is linear in the run and seed counts; bound them so
		// the fuzzer does not spend its budget allocating cells.
		if sp.Runs > 1000 || sp.HazardSeeds > 1000 {
			return
		}
		cells, err := sp.Cells()
		if err != nil || len(cells) == 0 {
			t.Fatalf("accepted spec %+v enumerates %d cells (err %v)", sp, len(cells), err)
		}
	})
}
