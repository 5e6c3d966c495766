// Package traceio reads and writes the simulator's time-series artifacts as
// CSV, so traces produced by cmd/nmsim can be archived, plotted externally,
// and fed back into analysis tooling.
//
// Two formats are defined:
//
//   - Community trace: one row per (day, slot) with price, renewable
//     generation, community load, grid demand and the hacked-meter count —
//     what cmd/nmsim emits.
//   - History: the (price, renewable, demand) triple the forecasters train
//     on (tariff.History), one row per slot.
package traceio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"nmdetect/internal/tariff"
)

// Row is one slot of a community trace.
type Row struct {
	Day, Slot  int
	Price      float64
	Renewable  float64
	Load       float64
	GridDemand float64
	Hacked     int
}

// traceHeader is the community-trace CSV header.
var traceHeader = []string{"day", "slot", "price", "renewable", "load", "grid_demand", "hacked"}

// WriteTrace emits rows as CSV with a header.
func WriteTrace(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(traceHeader); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			strconv.Itoa(r.Day),
			strconv.Itoa(r.Slot),
			formatFloat(r.Price),
			formatFloat(r.Renewable),
			formatFloat(r.Load),
			formatFloat(r.GridDemand),
			strconv.Itoa(r.Hacked),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTrace parses a community trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]Row, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("traceio: empty trace")
	}
	if err := checkHeader(records[0], traceHeader); err != nil {
		return nil, err
	}
	rows := make([]Row, 0, len(records)-1)
	for i, rec := range records[1:] {
		if len(rec) != len(traceHeader) {
			return nil, fmt.Errorf("traceio: row %d has %d fields, want %d", i+1, len(rec), len(traceHeader))
		}
		row := Row{}
		var errs [7]error
		row.Day, errs[0] = strconv.Atoi(rec[0])
		row.Slot, errs[1] = strconv.Atoi(rec[1])
		row.Price, errs[2] = strconv.ParseFloat(rec[2], 64)
		row.Renewable, errs[3] = strconv.ParseFloat(rec[3], 64)
		row.Load, errs[4] = strconv.ParseFloat(rec[4], 64)
		row.GridDemand, errs[5] = strconv.ParseFloat(rec[5], 64)
		row.Hacked, errs[6] = strconv.Atoi(rec[6])
		for _, e := range errs {
			if e != nil {
				return nil, fmt.Errorf("traceio: row %d: %w", i+1, e)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// historyHeader is the training-history CSV header.
var historyHeader = []string{"slot", "price", "renewable", "demand"}

// WriteHistory emits a tariff.History as CSV.
func WriteHistory(w io.Writer, h tariff.History) error {
	if err := h.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(historyHeader); err != nil {
		return err
	}
	for t := 0; t < h.Len(); t++ {
		rec := []string{
			strconv.Itoa(t),
			formatFloat(h.Price[t]),
			formatFloat(h.Renewable[t]),
			formatFloat(h.Demand[t]),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadHistory parses a history written by WriteHistory.
func ReadHistory(r io.Reader) (tariff.History, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return tariff.History{}, fmt.Errorf("traceio: %w", err)
	}
	if len(records) == 0 {
		return tariff.History{}, fmt.Errorf("traceio: empty history")
	}
	if err := checkHeader(records[0], historyHeader); err != nil {
		return tariff.History{}, err
	}
	h := tariff.History{}
	for i, rec := range records[1:] {
		if len(rec) != len(historyHeader) {
			return tariff.History{}, fmt.Errorf("traceio: row %d has %d fields", i+1, len(rec))
		}
		p, err1 := strconv.ParseFloat(rec[1], 64)
		ren, err2 := strconv.ParseFloat(rec[2], 64)
		d, err3 := strconv.ParseFloat(rec[3], 64)
		for _, e := range []error{err1, err2, err3} {
			if e != nil {
				return tariff.History{}, fmt.Errorf("traceio: row %d: %w", i+1, e)
			}
		}
		h.Append(p, ren, d)
	}
	if err := h.Validate(); err != nil {
		return tariff.History{}, err
	}
	return h, nil
}

func checkHeader(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("traceio: header %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("traceio: header %v, want %v", got, want)
		}
	}
	return nil
}

// formatFloat uses the shortest representation that parses back to exactly
// the same float64, so traces round-trip losslessly.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
