package main

import (
	"strings"
	"testing"
)

// TestCheckFlagsRejects covers every value checkFlags turns into exit 2.
// Each row sets one -cell key or one combination of flags; the error must
// name the flag (and, for an unknown arm, list the figure's arms).
func TestCheckFlagsRejects(t *testing.T) {
	const defaultCell = "fig7a/atk_wN/1"
	check := func(cell string, set ...string) error {
		given := make(map[string]bool)
		for _, name := range set {
			given[name] = true
		}
		_, _, err := checkFlags(cell, given)
		return err
	}
	if err := check(defaultCell); err != nil {
		t.Fatalf("default cell rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		cell string
		set  []string // flags given on the command line
		want []string
	}{
		{"cell two parts", "fig7a/atk_wN", []string{"cell"}, []string{"-cell"}},
		{"cell four parts", "fig7a/atk_wN/1/2", []string{"cell"}, []string{"-cell"}},
		{"cell empty", "", []string{"cell"}, []string{"-cell"}},
		{"cell unknown figure", "fig99/atk_wN/1", []string{"cell"}, []string{"-cell", "fig99"}},
		{"cell unknown arm", "fig7a/atk_xx/1", []string{"cell"},
			[]string{"-cell", "atk_xx", "af_wN", "atk_wN", "af_mN", "atk_mN", "af_mL", "atk_mL"}},
		{"cell seed not a number", "fig7a/atk_wN/one", []string{"cell"}, []string{"-cell", "one"}},
		{"cell seed negative", "fig7a/atk_wN/-1", []string{"cell"}, []string{"-cell"}},
		// A flag the chosen mode would ignore is an error, not a no-op.
		{"validate with cell", defaultCell, []string{"validate", "cell"}, []string{"-cell"}},
		{"detect with cell", defaultCell, []string{"detect", "cell"}, []string{"-cell"}},
		{"validate with quiet", defaultCell, []string{"validate", "quiet"}, []string{"-quiet"}},
		{"detect with jsonl", defaultCell, []string{"jsonl", "detect"}, []string{"-jsonl"}},
		{"detect with beacons", defaultCell, []string{"detect", "beacons"}, []string{"-beacons"}},
		{"validate with detect", defaultCell, []string{"validate", "detect"}, []string{"separate modes"}},
		{"attacker without detect", defaultCell, []string{"attacker"}, []string{"-attacker"}},
		{"attacker with validate", defaultCell, []string{"validate", "attacker"}, []string{"-attacker"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := check(tc.cell, tc.set...)
			if err == nil {
				t.Fatalf("-cell %q with %v accepted", tc.cell, tc.set)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error %q does not name %s", err, w)
				}
			}
		})
	}
	// Run mode resolves any registry cell; -quiet serves run and detect
	// mode, -attacker detect mode. The modes that read a file never parse
	// the default cell.
	for _, tc := range []struct {
		cell string
		set  []string
	}{
		{"fig9a/atk_mN/11", []string{"cell", "beacons", "jsonl", "quiet"}},
		{"fig7a/af_wN/18446744073709551615", []string{"cell"}},
		{defaultCell, []string{"detect", "attacker", "quiet"}},
		{defaultCell, []string{"validate"}},
	} {
		if err := check(tc.cell, tc.set...); err != nil {
			t.Fatalf("-cell %q with %v rejected: %v", tc.cell, tc.set, err)
		}
	}
	fig, cell, err := checkFlags("fig9a/atk_mN/11", map[string]bool{"cell": true})
	if err != nil || fig.ID != "fig9a" || cell.Key() != "fig9a/atk_mN/11" {
		t.Fatalf("fig9a/atk_mN/11 resolved to %s, %s, %v", fig.ID, cell.Key(), err)
	}
}
