package scenario

import (
	"bytes"
	"strings"
	"testing"
)

// TestShardsIDStability pins the hash contract of the new knob: Shards 0
// encodes to nothing (pre-existing IDs unchanged), Shards > 1 is content and
// must change the ID.
func TestShardsIDStability(t *testing.T) {
	base := Default(500, 42)
	zero := base
	zero.Game.Shards = 0
	if zero.ID() != base.ID() {
		t.Fatalf("Shards=0 changed the ID: %s vs %s", zero.ID(), base.ID())
	}
	var buf bytes.Buffer
	if err := zero.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "shards") {
		t.Fatalf("Shards=0 leaked into the JSON encoding:\n%s", buf.String())
	}
	sharded := base
	sharded.Game.Shards = 8
	if sharded.ID() == base.ID() {
		t.Fatal("Shards=8 did not change the content ID")
	}
}

func TestShardsRoundTripAndLowering(t *testing.T) {
	spec := Default(500, 42)
	spec.Game.Shards = 8
	var buf bytes.Buffer
	if err := spec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Game.Shards != 8 {
		t.Fatalf("round trip lost Shards: %d", back.Game.Shards)
	}
	if cc := spec.CommunityConfig(); cc.Shards != 8 {
		t.Fatalf("CommunityConfig.Shards = %d, want 8", cc.Shards)
	}
	opts, err := spec.CoreOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Community.Shards != 8 {
		t.Fatalf("CoreOptions community Shards = %d, want 8", opts.Community.Shards)
	}

	bad := spec
	bad.Game.Shards = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative Shards accepted")
	}
}

// TestScale500Preset promotes the sharded paper-scale scenario into the
// golden preset tier: it is the Default(500, 42) world with Shards=8 and
// nothing else changed, resolvable by name, with its own stable ID.
func TestScale500Preset(t *testing.T) {
	spec, err := Preset("scale500")
	if err != nil {
		t.Fatal(err)
	}
	if spec.N != 500 || spec.Seed != 42 || spec.Game.Shards != 8 {
		t.Fatalf("scale500 = N%d seed%d shards%d, want 500/42/8", spec.N, spec.Seed, spec.Game.Shards)
	}
	// Same world, different solver path: apart from Name and Shards the spec
	// must be Default(500, 42) exactly.
	plain := spec
	plain.Name = ""
	plain.Game.Shards = 0
	if plain.ID() != Default(500, 42).ID() {
		t.Fatal("scale500 changes more than Name and Shards")
	}
	fig, err := Preset("fig6")
	if err != nil {
		t.Fatal(err)
	}
	if spec.ID() == fig.ID() {
		t.Fatal("scale500 shares its content ID with a flat preset")
	}
	viaResolve, err := Resolve("scale500")
	if err != nil {
		t.Fatal(err)
	}
	if viaResolve.ID() != spec.ID() {
		t.Fatal("Resolve(scale500) differs from Preset(scale500)")
	}
}
