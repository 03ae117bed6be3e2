package ascoma_test

// Backward-compatibility pin for the content-addressed run-cache key:
// the hex keys below were captured from the seed build, so a change to
// how a Config serializes, or to runcache.keyVersion, that would move
// every cached result fails here first.

import (
	"testing"

	"ascoma"
	"ascoma/internal/runcache"
)

func TestRuncacheKeysMatchSeed(t *testing.T) {
	pins := []struct {
		cfg  ascoma.Config
		want runcache.Key
	}{
		{
			ascoma.Config{Arch: ascoma.ASCOMA, Workload: "radix", Pressure: 70, Scale: 8},
			"ac27bf0567df536a4086bcbccfafd6a77793b34172743f9acc354ad5c048e6b0",
		},
		{
			ascoma.Config{Arch: ascoma.CCNUMA, Workload: "fft", Pressure: 50, Scale: 16},
			"6bbe079997df93dbae519ae048c409cca041bc31dec48b747b9df86ebf78aa1d",
		},
		{
			ascoma.Config{Arch: ascoma.SCOMA, Workload: "barnes", Pressure: 10, Scale: 8},
			"86652d23f7b23e69c938fd5b010ec867a2fa0f29c4043f64c22eed73b555b7fd",
		},
	}
	for _, pin := range pins {
		got, err := runcache.KeyOf(pin.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != pin.want {
			t.Errorf("%v/%s@%d: key %s, want seed key %s",
				pin.cfg.Arch, pin.cfg.Workload, pin.cfg.Pressure, got, pin.want)
		}
	}
}
