package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// hostFingerprint identifies the machine a run measured: timings are only
// comparable between runs with the same fingerprint.
func hostFingerprint() map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

var (
	sourceOnce sync.Once
	sourceInfo map[string]string
)

// sourceProvenance names the code that ran: the VCS revision when the
// binary was built inside a git work tree, and always a digest of the Go
// sources under the working directory, which identifies the code in a
// checkout that is not a repository.
func sourceProvenance() map[string]string {
	sourceOnce.Do(func() {
		sourceInfo = map[string]string{"commit": "unknown", "source_digest": sourceDigest(".")}
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				switch s.Key {
				case "vcs.revision":
					sourceInfo["commit"] = s.Value
				case "vcs.modified":
					sourceInfo["commit_modified"] = s.Value
				}
			}
		}
	})
	return sourceInfo
}

// sourceDigest hashes every .go, go.mod and BENCHMARK.json file below root,
// skipping hidden directories (build output lives in one).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "BENCHMARK.json" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkLedger compares this run's exact counts with those an earlier run
// of the same code, workload, seed and mode recorded, then records them.
// The counts are deterministic work measures, so any difference is drift
// and counts as a failure.
func (r *report) checkLedger() error {
	if len(r.exact) == 0 {
		return nil
	}
	path := filepath.Join(r.cfg.workDir, "exact-counts.json")
	ledger := map[string]map[string]int64{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &ledger); err != nil {
			ledger = map[string]map[string]int64{}
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	mode := "plain"
	if r.cfg.trace {
		mode = "traced"
	}
	key := strings.Join([]string{sourceProvenance()["source_digest"], r.w.name, mode, r.paramKey()}, "/")
	if prev, ok := ledger[key]; ok {
		names := make([]string, 0, len(prev))
		for n := range prev {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if v, ok := r.exact[n]; ok && v != prev[n] {
				r.fail("exact count %s drifted between runs of the same code and seed: %d then %d", n, prev[n], v)
			}
		}
	}
	ledger[key] = r.exact
	b, err := json.MarshalIndent(ledger, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// paramKey identifies the inputs: the seed plus every size parameter.
func (r *report) paramKey() string {
	b, _ := json.Marshal(r.params["sizes"])
	return "seed" + strconv.FormatInt(r.cfg.seed, 10) + string(b)
}
