package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"nmdetect/internal/checkpoint"
	"nmdetect/internal/core"
)

// BatchReport is one worker batch's share of a fleet report: the report
// entries of the contiguous community range [Start, Start+Count). Workers
// write it as JSON next to their checkpoints; the supervisor merges the
// batch reports into the full fleet Report.
type BatchReport struct {
	Batch        int               `json:"batch"`
	Start        int               `json:"start"`
	Count        int               `json:"count"`
	PerCommunity []CommunityReport `json:"per_community"`
}

// NewBatchReport computes batch b's report from its range runners (runner j
// is global community start+j). The entries are the same communityReport
// values a full-width NewReport would compute — merge equivalence rests on
// that.
func NewBatchReport(cfg Config, b, start int, runners []*core.Runner) (*BatchReport, error) {
	rep := &BatchReport{Batch: b, Start: start, Count: len(runners)}
	for j, r := range runners {
		cr, err := communityReport(cfg, start+j, r)
		if err != nil {
			return nil, err
		}
		rep.PerCommunity = append(rep.PerCommunity, cr)
	}
	return rep, nil
}

// WriteFile writes the batch report durably through checkpoint.WriteAtomic —
// the same all-or-nothing contract as checkpoints, so the supervisor never
// reads a torn report from a worker killed mid-write.
func (r *BatchReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: encode batch report: %w", err)
	}
	err = checkpoint.WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
	if err != nil {
		return fmt.Errorf("fleet: batch report: %w", err)
	}
	return nil
}

// LoadBatchReport reads a worker's batch report back.
func LoadBatchReport(path string) (*BatchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: batch report: %w", err)
	}
	var r BatchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("fleet: batch report %s: %w", path, err)
	}
	if len(r.PerCommunity) != r.Count {
		return nil, fmt.Errorf("fleet: batch report %s carries %d entries for count %d", path, len(r.PerCommunity), r.Count)
	}
	return &r, nil
}

// BatchOutcome is one batch's contribution to a merge: its range, its
// supervision status and — unless it failed — its report.
type BatchOutcome struct {
	Start  int
	Count  int
	Status string       // StatusOK, StatusRetried or StatusFailed
	Report *BatchReport // nil iff Status is StatusFailed
}

// MergeReports assembles the fleet report from per-batch outcomes. The
// outcomes must tile [0, Communities) exactly. Surviving batches contribute
// their entries verbatim, stamped with the batch status; a failed batch
// contributes sentinel entries (no data: Days 0, MeanDelaySlots -1) and is
// excluded from the rollup. A run where every batch succeeded first try
// merges to byte-for-byte the report an in-process Run would have produced.
func MergeReports(cfg Config, outcomes []BatchOutcome) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sorted := append([]BatchOutcome(nil), outcomes...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Start < sorted[b].Start })
	next := 0
	rep := &Report{
		Communities: cfg.Communities,
		Size:        cfg.Size,
		TotalMeters: cfg.Communities * cfg.Size,
		Days:        cfg.Days,
		Detector:    cfg.Detector,
		BaseSeed:    cfg.BaseSeed,
	}
	for _, o := range sorted {
		if o.Start != next {
			return nil, fmt.Errorf("fleet: merge: batches do not tile the fleet (gap or overlap at community %d, batch starts at %d)", next, o.Start)
		}
		next += o.Count
		switch o.Status {
		case StatusOK, StatusRetried:
			if o.Report == nil {
				return nil, fmt.Errorf("fleet: merge: batch at %d has status %q but no report", o.Start, o.Status)
			}
			if o.Report.Start != o.Start || o.Report.Count != o.Count {
				return nil, fmt.Errorf("fleet: merge: batch at %d carries a report for range [%d,%d)", o.Start, o.Report.Start, o.Report.Start+o.Report.Count)
			}
			for j, cr := range o.Report.PerCommunity {
				i := o.Start + j
				if cr.Index != i {
					return nil, fmt.Errorf("fleet: merge: batch at %d entry %d reports community %d", o.Start, j, cr.Index)
				}
				if want := CommunitySeed(cfg.BaseSeed, i); cr.Seed != want {
					return nil, fmt.Errorf("fleet: merge: community %d reports seed %d, fleet derives %d — report from a different fleet?", i, cr.Seed, want)
				}
				cr.Status = o.Status
				rep.PerCommunity = append(rep.PerCommunity, cr)
			}
		case StatusFailed:
			rep.Failed += o.Count
			for j := 0; j < o.Count; j++ {
				i := o.Start + j
				rep.PerCommunity = append(rep.PerCommunity, CommunityReport{
					Index:          i,
					Seed:           CommunitySeed(cfg.BaseSeed, i),
					Size:           cfg.Size,
					Status:         StatusFailed,
					MeanDelaySlots: -1,
				})
			}
		default:
			return nil, fmt.Errorf("fleet: merge: batch at %d has unknown status %q", o.Start, o.Status)
		}
	}
	if next != cfg.Communities {
		return nil, fmt.Errorf("fleet: merge: batches cover %d of %d communities", next, cfg.Communities)
	}
	rep.Rollup = rollup(rep.PerCommunity)
	return rep, nil
}

// RunBatch is the worker-side entry point: verify the fleet and batch
// manifests, build (or resume) the range, drive it to the horizon and
// return the batch report. onDay is handed through to DriveRange.
func RunBatch(ctx context.Context, cfg Config, b, start, count int, onDay func(community, day int)) (*BatchReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CheckpointDir != "" {
		if err := EnsureManifest(cfg); err != nil {
			return nil, err
		}
		if err := EnsureBatchManifest(cfg, b, start, count); err != nil {
			return nil, err
		}
	}
	runners, err := BuildRange(ctx, cfg, start, count)
	if err != nil {
		return nil, err
	}
	if err := DriveRange(ctx, cfg, start, runners, onDay); err != nil {
		return nil, err
	}
	return NewBatchReport(cfg, b, start, runners)
}
