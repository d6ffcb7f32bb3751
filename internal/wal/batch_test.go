package wal

import (
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"radloc/internal/obs"
	"radloc/internal/vfs"
)

// batchRecs builds n distinct records starting at index from.
func batchRecs(from, n int) []Record {
	out := make([]Record, n)
	for i := range out {
		k := from + i
		out[i] = Record{SensorID: k % 7, CPM: 30 + k, Step: k / 7, Seq: uint64(k/7 + 1)}
	}
	return out
}

// dirFiles reads every regular file in dir by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestAppendBatchMatchesAppend is the group-commit byte-identity
// property: for seeded random batch splits and segment sizes, writing
// records with AppendBatch leaves segment files byte-identical to
// writing the same records with Append one at a time — batches that
// cross one or several rotations included.
func TestAppendBatchMatchesAppend(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 0))
	crossed := 0
	for trial := 0; trial < 60; trial++ {
		segRecs := 1 + r.IntN(9)
		total := r.IntN(70)
		pol := []FsyncPolicy{FsyncAlways, FsyncBatch, FsyncNever}[trial%3]
		recs := batchRecs(0, total)

		dirA, dirB := t.TempDir(), t.TempDir()
		a, _ := mustOpen(t, dirA, Options{Fsync: pol, SegmentRecords: segRecs})
		b, _ := mustOpen(t, dirB, Options{Fsync: pol, SegmentRecords: segRecs})
		for i := 0; i < total; {
			k := r.IntN(2 * segRecs) // 0-length batches included
			if i+k > total {
				k = total - i
			}
			if k > 0 && (i/segRecs != (i+k-1)/segRecs || (i > 0 && i%segRecs == 0)) {
				crossed++ // the batch rotates at its start or spills over
			}
			n, err := a.AppendBatch(recs[i : i+k])
			if err != nil || n != k {
				t.Fatalf("trial %d: AppendBatch(%d) = %d, %v", trial, k, n, err)
			}
			i += k
			if a.Offset() != uint64(i) {
				t.Fatalf("trial %d: offset %d after %d records", trial, a.Offset(), i)
			}
		}
		for _, rec := range recs {
			if _, err := b.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if fa, fb := dirFiles(t, dirA), dirFiles(t, dirB); !reflect.DeepEqual(fa, fb) {
			t.Fatalf("trial %d (segment %d, %d records): batched files differ from per-record files", trial, segRecs, total)
		}
		l, stats := mustOpen(t, dirA, Options{SegmentRecords: segRecs})
		if got := replayAll(t, l, 0); stats.TruncatedRecords != 0 || len(got) != total || (total > 0 && !reflect.DeepEqual(got, recs)) {
			t.Fatalf("trial %d: batched log does not replay its records (stats %+v)", trial, stats)
		}
		l.Close()
	}
	if crossed == 0 {
		t.Fatal("no batch crossed a segment rotation; the property went untested")
	}
}

// armFS counts segment writes through a vfs.Faulty and calls arm just
// before the write numbered at — the way to make the fault land part-
// way through one AppendBatch call.
type armFS struct {
	vfs.FS
	writes, at int
	arm        func()
}

func (a *armFS) OpenFile(path string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := a.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &armFile{File: f, fs: a}, nil
}

type armFile struct {
	vfs.File
	fs *armFS
}

func (f *armFile) Write(b []byte) (int, error) {
	f.fs.writes++
	if f.fs.writes == f.fs.at {
		f.fs.arm()
	}
	return f.File.Write(b)
}

// TestAppendBatchFaultKeepsDurablePrefix: a write or fsync that fails
// part-way through a batch crossing two rotations leaves exactly the
// chunks before it in the log, reports that count, and the next append
// continues at the right offset; reopening finds no torn bytes.
func TestAppendBatchFaultKeepsDurablePrefix(t *testing.T) {
	cases := []struct {
		name  string
		chunk int // 1-based chunk of the batch whose write arms the fault
		arm   func(*vfs.Faulty)
		want  int // records of the batch left in the log
	}{
		{"write fails in first chunk", 1, func(f *vfs.Faulty) { f.FailWrites(syscall.ENOSPC, false) }, 0},
		{"torn write in second chunk", 2, func(f *vfs.Faulty) { f.FailWrites(syscall.EIO, true) }, 2},
		{"fsync fails in second chunk", 2, func(f *vfs.Faulty) { f.FailSyncs(syscall.EIO) }, 2},
		{"fsync fails in last chunk", 3, func(f *vfs.Faulty) { f.FailSyncs(syscall.EIO) }, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			faulty := vfs.NewFaulty(nil, vfs.FaultConfig{Seed: 1})
			afs := &armFS{FS: faulty}
			afs.arm = func() { tc.arm(faulty) }
			l, _ := mustOpen(t, dir, Options{Fsync: FsyncAlways, SegmentRecords: 4, FS: afs})
			pre := batchRecs(0, 2)
			if n, err := l.AppendBatch(pre); err != nil || n != 2 {
				t.Fatalf("pre-append: %d, %v", n, err)
			}
			// Chunks of the 7-record batch: 2 (fills segment 0), 4
			// (segment 4), 1 (segment 8).
			batch := batchRecs(2, 7)
			afs.at = afs.writes + tc.chunk
			n, err := l.AppendBatch(batch)
			if err == nil || n != tc.want {
				t.Fatalf("AppendBatch = %d, %v; want %d and an error", n, err, tc.want)
			}
			if got := l.Offset(); got != uint64(2+tc.want) {
				t.Fatalf("offset after failed batch = %d, want %d", got, 2+tc.want)
			}
			faulty.Heal()
			next := Record{SensorID: 99, CPM: 1, Seq: 50}
			off, err := l.Append(next)
			if err != nil || off != uint64(2+tc.want) {
				t.Fatalf("append after heal: offset %d, %v; want %d", off, err, 2+tc.want)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, stats := mustOpen(t, dir, Options{SegmentRecords: 4})
			defer l2.Close()
			if stats.TruncatedRecords != 0 || stats.TruncatedBytes != 0 {
				t.Fatalf("failed batch left torn bytes: %+v", stats)
			}
			want := append(append(append([]Record(nil), pre...), batch[:tc.want]...), next)
			if got := replayAll(t, l2, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("log holds %+v, want %+v", got, want)
			}
		})
	}
}

// TestAppendBatchMetrics: one AppendBatch of n records adds n to
// radloc_wal_appends_total and, under FsyncAlways, one fsync per
// segment chunk.
func TestAppendBatchMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	l, _ := mustOpen(t, t.TempDir(), Options{Fsync: FsyncAlways, SegmentRecords: 8, Metrics: reg})
	defer l.Close()
	appends := reg.Counter("radloc_wal_appends_total", "")
	fsyncs := reg.Counter("radloc_wal_fsyncs_total", "")
	steps := []struct{ n, chunks int }{
		{5, 1},  // inside segment 0
		{3, 1},  // fills it exactly
		{20, 3}, // 8 + 8 + 4 across two rotations
		{1, 1},
	}
	var sumN, sumChunks uint64
	for _, s := range steps {
		if n, err := l.AppendBatch(batchRecs(int(sumN), s.n)); err != nil || n != s.n {
			t.Fatalf("AppendBatch(%d) = %d, %v", s.n, n, err)
		}
		sumN += uint64(s.n)
		sumChunks += uint64(s.chunks)
		if got := appends.Value(); got != sumN {
			t.Errorf("appends_total = %d, want %d", got, sumN)
		}
		if got := fsyncs.Value(); got != sumChunks {
			t.Errorf("fsyncs_total = %d, want %d (one per segment chunk)", got, sumChunks)
		}
	}
	if _, err := l.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
	if appends.Value() != sumN || fsyncs.Value() != sumChunks {
		t.Error("an empty batch moved the counters")
	}
}
