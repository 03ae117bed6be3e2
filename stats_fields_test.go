package ascoma

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"ascoma/internal/stats"
)

// forLeaves calls f with the path of every scalar leaf under v: struct
// fields, array and slice elements, recursively. Array elements are
// named by index; the elements of a slice (Machine.Nodes) share one path.
func forLeaves(v reflect.Value, path string, f func(path string, leaf reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			forLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, f)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			forLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), f)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			forLeaves(v.Index(i), path+"[]", f)
		}
	default:
		f(path, v)
	}
}

// jsonScalars returns every scalar value in a JSON document, as text.
func jsonScalars(t *testing.T, v any) map[string]bool {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	var walk func(any)
	walk = func(x any) {
		switch x := x.(type) {
		case map[string]any:
			for _, e := range x {
				walk(e)
			}
		case []any:
			for _, e := range x {
				walk(e)
			}
		default:
			out[fmt.Sprint(x)] = true
		}
	}
	walk(doc)
	return out
}

// TestStatsFieldsReachReport holds every field of stats.Machine and
// stats.Node to both serialized views: json.Marshal, which the golden
// checksums hash, and stats.Report, the name-keyed view -json consumers
// read. Each leaf gets a distinct value, and each value must come back out
// of both. A field that is unexported, tagged json:"-", or missing from
// counterMap or Report fails here.
func TestStatsFieldsReachReport(t *testing.T) {
	m := stats.NewMachine(2)
	want := map[string]string{} // value -> leaf path
	next := int64(1000)
	forLeaves(reflect.ValueOf(m).Elem(), "Machine", func(path string, leaf reflect.Value) {
		if !leaf.CanSet() {
			t.Errorf("%s is unexported", path)
			return
		}
		switch leaf.Kind() {
		case reflect.Int, reflect.Int64:
			leaf.SetInt(next)
		case reflect.String:
			leaf.SetString(strconv.FormatInt(next, 10))
		default:
			t.Errorf("%s has kind %v, which this test cannot fill", path, leaf.Kind())
			return
		}
		want[strconv.FormatInt(next, 10)] = path
		next++
	})
	// Sums over the two nodes start at 2000, above every leaf's value, so
	// no aggregate can stand in for a missing leaf.
	for view, got := range map[string]map[string]bool{
		"json.Marshal": jsonScalars(t, m),
		"stats.Report": jsonScalars(t, stats.Report(m)),
	} {
		for v, path := range want {
			if !got[v] {
				t.Errorf("%s (set to %s) does not reach %s", path, v, view)
			}
		}
	}
}

// TestStatsFieldsPopulated holds every leaf of stats.Machine to being
// populated by a run: a counter that the machine never stamps would pin the
// goldens over a dead zero. AS-COMA and MIG-NUMA on radix at 70% between
// them set every field, every time category and every miss class.
func TestStatsFieldsPopulated(t *testing.T) {
	set := map[string]bool{}
	for _, arch := range []Arch{ASCOMA, MIGNUMA} {
		res, err := Run(Config{Arch: arch, Workload: "radix", Pressure: 70, Scale: goldenScale})
		if err != nil {
			t.Fatal(err)
		}
		forLeaves(reflect.ValueOf(res.Machine).Elem(), "Machine", func(path string, leaf reflect.Value) {
			set[path] = set[path] || !leaf.IsZero()
		})
	}
	for path, ok := range set {
		if !ok {
			t.Errorf("no run populates %s", path)
		}
	}
}
