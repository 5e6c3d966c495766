// Package checkpoint persists run state to disk so long monitoring runs can
// be killed and resumed. A checkpoint file is a gob stream: a small header
// (magic, format version, payload kind) followed by one payload value. The
// header is checked before any payload bytes are decoded, so a stale or
// foreign file fails loudly with ErrIncompatible instead of producing a
// half-decoded state. Writes go through WriteAtomic — a temp file in the
// target directory, renamed into place — so a crash mid-write never corrupts
// the previous checkpoint. WriteAtomic is also the durable write for the
// other files a run leaves behind (serve's session.json, the fleet batch
// report).
//
// gob (not JSON) is deliberate: checkpointed state legally contains NaN —
// dropped meter readings are recorded as NaN sentinels — and encoding/json
// cannot represent non-finite floats.
package checkpoint

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"nmdetect/internal/obs"
)

// Version is the on-disk format version. Bump it whenever the layout of any
// checkpointed payload type changes incompatibly; old files then fail with
// ErrIncompatible instead of decoding garbage.
const Version = 1

const magic = "NMCKPT"

// ErrIncompatible marks a file that is not a checkpoint, has a different
// format version, or holds a different payload kind than requested.
var ErrIncompatible = errors.New("checkpoint: incompatible file")

type header struct {
	Magic   string
	Version int
	// Kind names the payload type ("monitor-run", ...), so a checkpoint from
	// one subsystem is never decoded into another's state.
	Kind string
}

// fsyncDir opens dir and fsyncs it, making a just-renamed directory entry
// durable. A package variable so tests can observe the call and inject
// failures without a real crash.
var fsyncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Save atomically writes state to path (see WriteAtomic). kind names the
// payload type and must match the kind passed to Load. Once Save returns nil
// the checkpoint survives a crash or power loss.
func Save(path, kind string, state any) error {
	start := time.Now()
	err := WriteAtomic(path, func(w io.Writer) error {
		enc := gob.NewEncoder(w)
		if err := enc.Encode(header{Magic: magic, Version: Version, Kind: kind}); err != nil {
			return fmt.Errorf("checkpoint: encode header: %w", err)
		}
		if err := enc.Encode(state); err != nil {
			return fmt.Errorf("checkpoint: encode state: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if sink := obs.Default(); sink != nil {
		sink.Count("checkpoint.saves", 1)
		sink.Observe("checkpoint.save_seconds", time.Since(start).Seconds())
	}
	return nil
}

// WriteAtomic durably replaces path with what write produces. It writes a
// temp file in path's directory, fsyncs it, renames it over path and then
// fsyncs the directory, so a crash never leaves a torn file at path and,
// once WriteAtomic returns nil, the new content survives a crash or power
// loss. On any failure the temp file is removed. Errors from write are
// returned unchanged.
func WriteAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	// After a successful rename the removal is a no-op on a nonexistent name.
	defer os.Remove(tmpName)
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: commit: %w", err)
	}
	// The rename is only durable once the directory entry itself is on
	// disk; without this a crash can lose a file WriteAtomic already
	// reported as written.
	if err := fsyncDir(dir); err != nil {
		return fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	return nil
}

// Load reads a checkpoint written by Save into state (a pointer to the same
// concrete type). It verifies the magic, format version and payload kind
// before decoding the payload.
func Load(path, kind string, state any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	dec := gob.NewDecoder(f)
	var h header
	if err := dec.Decode(&h); err != nil {
		return fmt.Errorf("checkpoint: %s: not a checkpoint file: %w (%w)", path, err, ErrIncompatible)
	}
	if h.Magic != magic {
		return fmt.Errorf("checkpoint: %s: bad magic %q: %w", path, h.Magic, ErrIncompatible)
	}
	if h.Version != Version {
		return fmt.Errorf("checkpoint: %s: format version %d, this build reads %d: %w",
			path, h.Version, Version, ErrIncompatible)
	}
	if h.Kind != kind {
		return fmt.Errorf("checkpoint: %s: holds %q state, want %q: %w", path, h.Kind, kind, ErrIncompatible)
	}
	if err := dec.Decode(state); err != nil {
		return fmt.Errorf("checkpoint: %s: decode state: %w", path, err)
	}
	return nil
}

// Exists reports whether a regular file exists at path. It does not verify
// the file is a readable checkpoint — Load does that.
func Exists(path string) bool {
	info, err := os.Stat(path)
	return err == nil && info.Mode().IsRegular()
}
