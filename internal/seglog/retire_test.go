package seglog

import (
	"testing"

	"blobcr/internal/chunkstore"
)

// The shape of a data provider's log under a checkpoint series: each round
// one put frame of a fresh generation boards the log as one PutBatch, and
// the generation retireLag rounds older is retired whole with one
// DeleteBatch, oldest first.
const (
	retireRecs  = 16
	retireBytes = 16 << 10
	retireLag   = 4
	// retireBatch is one generation's payload bytes; its records' headers
	// make the batch a little larger, so a segment of n batches holds n-1.
	retireBatch = retireRecs * retireBytes
)

// retireRun is what a run of retireGenerations measured.
type retireRun struct {
	putBytes  int64   // record bytes appended by the generations' puts
	relocated int64   // live records compaction moved
	maxExcess int64   // largest disk - live seen after a round
	diskLive  float64 // disk / live, averaged over the rounds
}

// retireGenerations runs rounds of the FIFO checkpoint shape against a log
// whose segments hold segBatches generation batches, with the background
// compactor on. After each round it lets compaction finish (CompactNow
// serializes behind the background pass) before reading the space.
func retireGenerations(tb testing.TB, dir string, segBatches, rounds int) retireRun {
	tb.Helper()
	s := openTest(tb, dir, Options{SegmentBytes: int64(segBatches) * retireBatch, NoCompress: true})
	defer s.Close()
	bodies := make([][]byte, retireRecs)
	for i := range bodies {
		bodies[i] = randBytes(i+1, retireBytes)
	}
	gen := func(g int) []chunkstore.Key {
		keys := make([]chunkstore.Key, retireRecs)
		for i := range keys {
			keys[i] = chunkstore.Key{Blob: uint64(g + 1), ID: uint64(i)}
		}
		return keys
	}
	var run retireRun
	for g := 0; g < rounds; g++ {
		if err := s.PutBatch(gen(g), bodies); err != nil {
			tb.Fatal(err)
		}
		run.putBytes += retireRecs * (hdrSize + retireBytes)
		if old := g - retireLag; old >= 0 {
			if err := s.DeleteBatch(gen(old)); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := s.CompactNow(); err != nil {
			tb.Fatal(err)
		}
		st := s.EngineStats()
		disk, live := int64(st.Field("disk_bytes")), int64(st.Field("live_bytes"))
		run.maxExcess = max(run.maxExcess, disk-live)
		run.diskLive += float64(disk) / float64(live) / float64(rounds)
	}
	run.relocated = int64(s.EngineStats().Field("relocated_records"))
	for g := max(0, rounds-retireLag); g < rounds; g++ {
		for _, k := range gen(g) {
			if !s.Has(k) {
				tb.Fatalf("live record %v lost", k)
			}
		}
	}
	return run
}

// TestRetiredGenerationsFreeWholeSegments pins why the default roll size is
// about two put frames: when a segment holds one generation, retiring the
// generation leaves the segment fully dead, and compaction unlinks it
// without copying a record. When a segment mixes many generations (the
// 64 MiB : 4 MiB ratio of the old default), it falls below the live ratio
// while its younger generations still live, and compaction copies them
// forward just before they die too.
func TestRetiredGenerationsFreeWholeSegments(t *testing.T) {
	const rounds = 48
	one := retireGenerations(t, t.TempDir(), 2, rounds)
	t.Logf("2 batches per segment: %d records relocated, disk-live at most %d bytes, disk/live %.2f",
		one.relocated, one.maxExcess, one.diskLive)
	if one.relocated != 0 {
		t.Errorf("2 batches per segment: compaction relocated %d records, want 0", one.relocated)
	}
	if limit := int64(2 * 2 * retireBatch); one.maxExcess > limit {
		t.Errorf("2 batches per segment: disk exceeded live by %d bytes, want at most 2 segments (%d)", one.maxExcess, limit)
	}
	mixed := retireGenerations(t, t.TempDir(), 16, rounds)
	t.Logf("16 batches per segment: %d records relocated, disk-live at most %d bytes, disk/live %.2f",
		mixed.relocated, mixed.maxExcess, mixed.diskLive)
	if mixed.relocated == 0 {
		t.Error("16 batches per segment: compaction relocated nothing; the contrast the default rests on is gone")
	}
}

// BenchmarkRetireGenerations reports, per segment size in generation
// batches, the record bytes compaction relocated per byte put and the disk
// bytes per live byte, over the FIFO checkpoint shape.
func BenchmarkRetireGenerations(b *testing.B) {
	for _, bc := range []struct {
		name       string
		segBatches int
	}{{"seg=2batches", 2}, {"seg=16batches", 16}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var run retireRun
			for i := 0; i < b.N; i++ {
				run = retireGenerations(b, b.TempDir(), bc.segBatches, 48)
			}
			b.ReportMetric(float64(run.relocated*(hdrSize+retireBytes))/float64(run.putBytes), "reloc/put")
			b.ReportMetric(run.diskLive, "disk/live")
		})
	}
}
