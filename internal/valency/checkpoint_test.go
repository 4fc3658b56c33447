package valency

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/explore"
)

// TestMemoExportImportRoundtrip: exporting, importing and re-exporting a
// memo is the identity, and an oracle over the imported memo answers the
// original queries without exploring a single configuration — with the
// exact same verdicts and witness paths.
func TestMemoExportImportRoundtrip(t *testing.T) {
	o := New(explore.Options{Workers: 1})
	ctx := context.Background()
	c := floodConfig("0", "1", "1")
	sets := [][]int{{0}, {1, 2}, {0, 1, 2}}
	want := make([]*Verdict, len(sets))
	for i, set := range sets {
		v, err := o.Decidable(ctx, c, set)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	if _, _, err := o.SoloDeciding(ctx, c, 2); err != nil {
		t.Fatal(err)
	}

	exported := ExportMemo(o.memo)
	imported, err := ImportMemo(exported)
	if err != nil {
		t.Fatal(err)
	}
	if again := ExportMemo(imported); !reflect.DeepEqual(again, exported) {
		t.Fatalf("export/import/export drifted:\n got %+v\nwant %+v", again, exported)
	}

	replay := NewWithMemo(explore.Options{Workers: 1}, imported)
	for i, set := range sets {
		v, err := replay.Decidable(ctx, c, set)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v.Decidable, want[i].Decidable) {
			t.Fatalf("set %v: imported verdict %v, want %v", set, v.Decidable, want[i].Decidable)
		}
		if !reflect.DeepEqual(v.Witness, want[i].Witness) {
			t.Fatalf("set %v: imported witness paths differ", set)
		}
	}
	if st := replay.Stats(); st.Configs != 0 {
		t.Fatalf("replay explored %d configs, want 0", st.Configs)
	}

	// Importing inconsistent data must fail, not mis-load.
	bad := &checkpoint.MemoData{Verdicts: []checkpoint.VerdictRec{{Values: []string{"0"}}}}
	if _, err := ImportMemo(bad); err == nil {
		t.Fatal("verdict with values but no witness imported cleanly")
	}
}
