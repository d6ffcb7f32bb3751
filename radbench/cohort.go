package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// cohort fingerprints where and on what a run happened. Two reports
// compare only when everything but the source digest matches: numbers
// from different hosts, toolchains, filesystems or inputs are not
// evidence about a code change.
type cohort struct {
	// Source is a SHA-256 over the program's Go sources and go.mod
	// (the benchmark's own directory excluded), standing in for the
	// commit: the checkout carries no git metadata.
	Source     string `json:"source"`
	GoVersion  string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	WALFS      string `json:"wal_fs"`
	Seed       uint64 `json:"seed"`
}

func (c cohort) String() string {
	return fmt.Sprintf("source=%s go=%s nproc=%d gomaxprocs=%d kernel=%s wal_fs=%s seed=%d",
		c.Source, c.GoVersion, c.NumCPU, c.GOMAXPROCS, c.Kernel, c.WALFS, c.Seed)
}

// mismatch lists the fields, other than the source digest, on which
// two cohorts differ.
func (c cohort) mismatch(o cohort) []string {
	var out []string
	add := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s %v != %v", name, a, b))
		}
	}
	add("go", c.GoVersion, o.GoVersion)
	add("nproc", c.NumCPU, o.NumCPU)
	add("gomaxprocs", c.GOMAXPROCS, o.GOMAXPROCS)
	add("kernel", c.Kernel, o.Kernel)
	add("wal_fs", c.WALFS, o.WALFS)
	add("seed", c.Seed, o.Seed)
	return out
}

func fingerprint(root, walDir string, seed uint64) (cohort, error) {
	src, err := sourceDigest(root)
	if err != nil {
		return cohort{}, err
	}
	kernel, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return cohort{}, err
	}
	return cohort{
		Source:     src,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     strings.TrimSpace(string(kernel)),
		WALFS:      fsType(walDir),
		Seed:       seed,
	}, nil
}

// sourceDigest hashes go.mod and every .go file under root, skipping
// hidden directories and the benchmark's own directory.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "radbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") || rel == "go.mod" {
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(filepath.Join(root, f))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", f)
		_, err = io.Copy(h, fh)
		fh.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// fsType names the filesystem holding dir. fsync on tmpfs is free, so
// a WAL there measures nothing about durability.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}

// readReport finds the report line in a saved run output.
func readReport(path string) (report, error) {
	f, err := os.Open(path)
	if err != nil {
		return report{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "report "); ok {
			var r report
			return r, json.Unmarshal([]byte(line), &r)
		}
	}
	if err := sc.Err(); err != nil {
		return report{}, err
	}
	return report{}, fmt.Errorf("%s: no report line", path)
}

// compareCmd prints each metric of run B relative to run A, given the
// saved standard output of both. It refuses, with a non-zero exit, to
// compare runs of different workloads or cohorts.
func compareCmd(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare <run A output> <run B output>")
	}
	a, err := readReport(args[0])
	if err != nil {
		return err
	}
	b, err := readReport(args[1])
	if err != nil {
		return err
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s (trace=%v) with %s (trace=%v)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	if mm := a.Cohort.mismatch(b.Cohort); len(mm) > 0 {
		return fmt.Errorf("refusing to compare runs from different cohorts: %s", strings.Join(mm, "; "))
	}
	fmt.Fprintf(w, "workload %s  A source=%s  B source=%s\n", a.Workload, a.Cohort.Source, b.Cohort.Source)
	var names []string
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		am, bm := a.Metrics[n], b.Metrics[n]
		ratio := math.NaN()
		if am.Value != 0 {
			ratio = bm.Value / am.Value
		}
		fmt.Fprintf(w, "%-28s A=%-12.6g B=%-12.6g B/A=%.4f %s\n", n, am.Value, bm.Value, ratio, am.Unit)
	}
	return nil
}

// baselineNote compares a run's accuracy with the committed baseline
// for its workload and seed (accuracy_baseline.json), when there is
// one. Accuracy is a pure function of the inputs, so any difference
// means the estimates changed.
func baselineNote(root, workload string, seed uint64, acc accuracy) string {
	raw, err := os.ReadFile(filepath.Join(root, "radbench", "accuracy_baseline.json"))
	if err != nil {
		return ""
	}
	var base map[string]map[string]accuracy
	if err := json.Unmarshal(raw, &base); err != nil {
		return "accuracy baseline unreadable: " + err.Error()
	}
	want, ok := base[workload][fmt.Sprint(seed)]
	if !ok {
		return ""
	}
	if want == acc {
		return "accuracy equals the committed baseline"
	}
	return fmt.Sprintf("accuracy differs from the committed baseline: loc_err %.4f (baseline %.4f), false_pos %d (%d), false_neg %d (%d)",
		acc.LocErr, want.LocErr, acc.FalsePos, want.FalsePos, acc.FalseNeg, want.FalseNeg)
}
