package dirlint_test

import (
	"testing"

	"ascoma/internal/analysis/analysistest"
	"ascoma/internal/analysis/dirlint"
)

func TestDirlint(t *testing.T) {
	analysistest.Run(t, dirlint.Analyzer, "../testdata/src/dirlint")
}
