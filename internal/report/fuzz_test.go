package report

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzParsePressures drives arbitrary strings through the pressure-axis
// parser: it must never panic, and anything it accepts must be a non-empty,
// strictly ascending axis of pressures in 1..99 that prints back to a
// string parsing to the same axis.
func FuzzParsePressures(f *testing.F) {
	for _, s := range []string{
		"", "10,30,50,70,90", "90, 10,50", "50,50, 10,50,10", "1,99",
		"0", "100", "-5", "10,,30", "10,", " 7 ", "\t42\t", "+5", "1e2",
		"9223372036854775807", "99999999999999999999",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ps, err := ParsePressures(s)
		if err != nil {
			return
		}
		if len(ps) == 0 {
			t.Fatalf("ParsePressures(%q) accepted an empty axis", s)
		}
		parts := make([]string, len(ps))
		for i, p := range ps {
			if p < 1 || p > 99 {
				t.Fatalf("ParsePressures(%q) accepted pressure %d", s, p)
			}
			if i > 0 && p <= ps[i-1] {
				t.Fatalf("ParsePressures(%q) = %v, not strictly ascending", s, ps)
			}
			parts[i] = strconv.Itoa(p)
		}
		again, err := ParsePressures(strings.Join(parts, ","))
		if err != nil || !slices.Equal(again, ps) {
			t.Fatalf("ParsePressures(%q) = %v, reparsed as %v (%v)", s, ps, again, err)
		}
	})
}
