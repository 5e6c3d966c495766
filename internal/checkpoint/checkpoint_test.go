package checkpoint

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Day  int
	Vals []float64
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	in := payload{Day: 7, Vals: []float64{1, math.NaN(), math.Inf(1), -3.5}}
	if err := Save(path, "test", &in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Load(path, "test", &out); err != nil {
		t.Fatal(err)
	}
	if out.Day != 7 || len(out.Vals) != 4 {
		t.Fatalf("round trip lost data: %+v", out)
	}
	// NaN must survive (the reason the format is gob, not JSON).
	if !math.IsNaN(out.Vals[1]) || !math.IsInf(out.Vals[2], 1) {
		t.Fatalf("non-finite values lost: %v", out.Vals)
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, "test", &payload{Day: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, "test", &payload{Day: 2}); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Load(path, "test", &out); err != nil {
		t.Fatal(err)
	}
	if out.Day != 2 {
		t.Fatalf("got day %d, want the newer checkpoint", out.Day)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the checkpoint", len(entries))
	}
}

func TestLoadRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	var out payload

	garbage := filepath.Join(dir, "garbage")
	if err := os.WriteFile(garbage, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Load(garbage, "test", &out); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("garbage file: got %v, want ErrIncompatible", err)
	}

	wrongKind := filepath.Join(dir, "wrong-kind.ckpt")
	if err := Save(wrongKind, "other", &payload{}); err != nil {
		t.Fatal(err)
	}
	if err := Load(wrongKind, "test", &out); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("wrong kind: got %v, want ErrIncompatible", err)
	}

	if err := Load(filepath.Join(dir, "missing.ckpt"), "test", &out); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestExists(t *testing.T) {
	dir := t.TempDir()
	if Exists(dir) {
		t.Fatal("directory reported as checkpoint file")
	}
	path := filepath.Join(dir, "run.ckpt")
	if Exists(path) {
		t.Fatal("missing file reported as existing")
	}
	if err := Save(path, "test", &payload{}); err != nil {
		t.Fatal(err)
	}
	if !Exists(path) {
		t.Fatal("saved checkpoint not found")
	}
}

// TestSaveFsyncsParentDir: after the atomic rename the parent directory must
// be fsynced, or a crash can lose a checkpoint Save already reported as
// durable. The fsync hook is injectable so both the happy path and the
// failure path are testable without a real crash.
func TestSaveFsyncsParentDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	orig := fsyncDir
	defer func() { fsyncDir = orig }()

	var synced []string
	fsyncDir = func(d string) error {
		synced = append(synced, d)
		return orig(d)
	}
	if err := Save(path, "test-kind", &payload{Day: 1}); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("directory fsync calls = %v, want exactly [%s]", synced, dir)
	}

	fsyncDir = func(string) error { return errors.New("injected fsync failure") }
	err := Save(path, "test-kind", &payload{Day: 2})
	if err == nil || !strings.Contains(err.Error(), "injected fsync failure") {
		t.Fatalf("Save with failing dir fsync = %v, want wrapped injected error", err)
	}
}

// TestWriteAtomicFailures: a failing writer leaves neither the target nor a
// temp file behind, and a failing directory fsync is reported, not swallowed.
func TestWriteAtomicFailures(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")

	errWrite := errors.New("injected write failure")
	err := WriteAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return errWrite
	})
	if !errors.Is(err, errWrite) {
		t.Fatalf("WriteAtomic with failing writer = %v, want the writer's error", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("failed write left %v (err %v), want an empty directory", entries, err)
	}

	orig := fsyncDir
	defer func() { fsyncDir = orig }()
	errSync := errors.New("injected fsync failure")
	fsyncDir = func(string) error { return errSync }
	err = WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("{}\n"))
		return err
	})
	if !errors.Is(err, errSync) {
		t.Fatalf("WriteAtomic with failing dir fsync = %v, want the fsync error", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "report.json" {
		t.Fatalf("directory holds %v, want only the renamed target", entries)
	}
}
