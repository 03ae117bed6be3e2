package mem

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParseTiers drives arbitrary strings through the CLI tier parser: it
// must never panic, anything it accepts must pass ValidateTiers with every
// capacity in 1..100, and an accepted spec must print back to a string
// that parses to the same tiers.
func FuzzParseTiers(f *testing.F) {
	for _, s := range []string{
		"",
		"100:50:50",
		"30:40:60,70:120:300",
		"10:30:30,20:50:90,30:80:200,40:150:400",
		"20:1:1,20:1:1,20:1:1,20:1:1,20:1:1",
		"9223372036854775807:40:40,9223372036854775807:80:80,102:100:100",
		"50:40:60",
		"0:40:60,100:120:300",
		"100:0:1",
		"100:-1:1",
		"100:40",
		" 100:50:50",
		",",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tiers, err := ParseTiers(s)
		if err != nil {
			return
		}
		if s == "" {
			if tiers != nil {
				t.Fatalf("empty spec parsed to %v, want nil", tiers)
			}
			return
		}
		if err := ValidateTiers(tiers); err != nil {
			t.Fatalf("ParseTiers(%q) accepted tiers ValidateTiers rejects: %v", s, err)
		}
		parts := make([]string, len(tiers))
		for i, ts := range tiers {
			if ts.CapacityPct < 1 || ts.CapacityPct > 100 {
				t.Fatalf("ParseTiers(%q) accepted capacity %d%%", s, ts.CapacityPct)
			}
			parts[i] = fmt.Sprintf("%d:%d:%d", ts.CapacityPct, ts.ReadCycles, ts.WriteCycles)
		}
		again, err := ParseTiers(strings.Join(parts, ","))
		if err != nil {
			t.Fatalf("ParseTiers(%q) = %v, which does not reparse: %v", s, tiers, err)
		}
		if fmt.Sprint(again) != fmt.Sprint(tiers) {
			t.Fatalf("ParseTiers(%q) = %v, reparsed as %v", s, tiers, again)
		}
	})
}
