package scenario

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestActiveTolIDSemantics pins the hash rule decided for the active-set
// knob: zero (the reference semantics) is omitted from the canonical JSON —
// so every pre-existing spec keeps its recorded ID — while any non-zero value
// is content and moves the hash, exactly like JacobiBlock.
func TestActiveTolIDSemantics(t *testing.T) {
	base := Default(500, 42)
	if base.Game.ActiveTol != 0 {
		t.Fatalf("default ActiveTol = %v, want 0", base.Game.ActiveTol)
	}

	blob, err := json.Marshal(base.Game)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "active_tol") {
		t.Fatalf("zero ActiveTol serialized (%s): pre-existing spec IDs would change", blob)
	}

	tuned := base
	tuned.Game.ActiveTol = 0.05
	if tuned.ID() == base.ID() {
		t.Fatal("non-zero ActiveTol did not change the ID")
	}
	blob, err = json.Marshal(tuned.Game)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"active_tol":0.05`) {
		t.Fatalf("non-zero ActiveTol missing from canonical JSON: %s", blob)
	}
}

func TestActiveTolValidateAndLowering(t *testing.T) {
	for _, bad := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		s := Default(100, 1)
		s.Game.ActiveTol = bad
		if s.Validate() == nil {
			t.Errorf("Validate accepted ActiveTol %v", bad)
		}
	}

	s := Default(100, 1)
	s.Game.ActiveTol = 0.05
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate rejected ActiveTol 0.05: %v", err)
	}
	if got := s.CommunityConfig().GameActiveTol; got != 0.05 {
		t.Errorf("CommunityConfig.GameActiveTol = %v, want 0.05", got)
	}
	opts, err := s.CoreOptions()
	if err != nil {
		t.Fatal(err)
	}
	if got := opts.Community.GameActiveTol; got != 0.05 {
		t.Errorf("CoreOptions community GameActiveTol = %v, want 0.05", got)
	}
}
