package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// Env describes where and on what a run was measured, so that records from
// different hosts or different code can be told apart.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Nproc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	// Commit is the git commit of the checkout, "none" outside a git
	// work tree. SourceSHA256 hashes the module's Go sources and go.mod, so
	// it names the code under test either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func environment(root string) Env {
	return Env{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Nproc:        nproc(),
		CPUModel:     cpuModel(),
		Commit:       commit(root),
		SourceSHA256: sourceDigest(root),
	}
}

// nproc is the processor count the nproc utility reports, falling back to
// runtime.NumCPU (which honours the same affinity mask) without it.
func nproc() int {
	out, err := exec.Command("nproc").Output()
	if err == nil {
		if n, err := strconv.Atoi(strings.TrimSpace(string(out))); err == nil {
			return n
		}
	}
	return runtime.NumCPU()
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit asks git only when root itself is a work tree, so a checkout
// without .git never picks up an enclosing repository's commit.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every .go file under root, in path order,
// skipping dot-directories (build outputs live there).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMiB reads the peak resident set (VmHWM) of a process from procfs.
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}

// parseVmHWM extracts VmHWM (reported in kB) from a procfs status file, in
// MiB.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		v, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM line in process status")
}
