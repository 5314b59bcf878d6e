package lodes

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/table"
)

// Tests of the chunk-streamed generation path: a Frame plus its
// StreamJobs chunks must reproduce the monolithic Generate bit for bit
// at every chunk size, the streamed CSV writer must be byte-identical
// to the materialized one, and streaming consumers must stay within a
// memory envelope set by the chunk size, not the dataset size.

func TestStreamJobsMatchesGenerate(t *testing.T) {
	cfg := TestConfig()
	want := MustGenerate(cfg, dist.NewStreamFromSeed(11))

	for _, chunkRows := range []int{1, 97, 5_000, 1 << 20} {
		s := dist.NewStreamFromSeed(11)
		f, err := GenerateFrame(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		if f.TotalJobs != want.NumJobs() {
			t.Fatalf("chunk=%d: frame TotalJobs = %d, want %d", chunkRows, f.TotalJobs, want.NumJobs())
		}
		if len(f.Establishments) != len(want.Establishments) {
			t.Fatalf("chunk=%d: %d establishments, want %d", chunkRows, len(f.Establishments), len(want.Establishments))
		}
		for i, e := range f.Establishments {
			if e != want.Establishments[i] {
				t.Fatalf("chunk=%d: establishment %d = %+v, want %+v", chunkRows, i, e, want.Establishments[i])
			}
		}
		got := table.New(f.Schema)
		chunks := 0
		if err := f.StreamJobs(s, chunkRows, func(c *table.Table) error {
			// Chunks must be non-empty and entity-sorted (establishments
			// are emitted in ID order and never split).
			if c.NumRows() == 0 {
				return fmt.Errorf("empty chunk")
			}
			for r := 1; r < c.NumRows(); r++ {
				if c.Entity(r) < c.Entity(r-1) {
					return fmt.Errorf("chunk not entity-sorted at row %d", r)
				}
			}
			got.AppendSpan(c, 0, c.NumRows())
			chunks++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if chunkRows == 1 && chunks < len(f.Establishments) {
			t.Fatalf("chunk=1 produced %d chunks for %d establishments", chunks, len(f.Establishments))
		}
		if got.NumRows() != want.NumJobs() {
			t.Fatalf("chunk=%d: streamed %d rows, want %d", chunkRows, got.NumRows(), want.NumJobs())
		}
		for row := 0; row < got.NumRows(); row++ {
			if got.Entity(row) != want.WorkerFull.Entity(row) {
				t.Fatalf("chunk=%d row %d: entity %d, want %d", chunkRows, row, got.Entity(row), want.WorkerFull.Entity(row))
			}
			for a := 0; a < f.Schema.NumAttrs(); a++ {
				if got.Code(row, a) != want.WorkerFull.Code(row, a) {
					t.Fatalf("chunk=%d row %d attr %d: code %d, want %d",
						chunkRows, row, a, got.Code(row, a), want.WorkerFull.Code(row, a))
				}
			}
		}
	}
}

func TestWriteCSVStreamByteIdentical(t *testing.T) {
	cfg := TestConfig()
	cfg.NumEstablishments = 400

	dir := t.TempDir()
	full := filepath.Join(dir, "full")
	streamed := filepath.Join(dir, "streamed")

	d := MustGenerate(cfg, dist.NewStreamFromSeed(23))
	if err := d.WriteCSV(full); err != nil {
		t.Fatal(err)
	}

	s := dist.NewStreamFromSeed(23)
	f, err := GenerateFrame(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteCSVStream(streamed, s, 500); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"places.csv", "establishments.csv", "jobs.csv"} {
		a, err := os.ReadFile(filepath.Join(full, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(streamed, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s differs between WriteCSV and WriteCSVStream", name)
		}
	}

	// And the streamed output round-trips through the loader.
	back, err := ReadCSV(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumJobs() != d.NumJobs() {
		t.Fatalf("reloaded %d jobs, want %d", back.NumJobs(), d.NumJobs())
	}
}

// TestCatSamplerMatchesLinear pins the sampler gating: at or below
// linearSampleMax the place sampler's prefix-sum search must not engage
// at all (so every recorded pre-national draw sequence is untouched),
// and above it the binary search must agree with the subtractive scan on
// the same draw for almost every u — the two differ only by
// floating-point association at bin edges. The linear sampler itself,
// with its hoisted total, must match the per-draw re-summing scan
// exactly.
func TestCatSamplerMatchesLinear(t *testing.T) {
	small := make([]float64, linearSampleMax)
	for i := range small {
		small[i] = float64(i%7) + 0.5
	}
	if cs := newPlaceSampler(small); cs.cum != nil {
		t.Fatalf("sampler built a prefix table for %d weights; the linear cutoff is %d",
			len(small), linearSampleMax)
	}

	large := make([]float64, linearSampleMax+1)
	for i := range large {
		large[i] = float64((i*13)%29) + 0.25
	}
	cs := newPlaceSampler(large)
	if cs.cum == nil {
		t.Fatal("sampler stayed linear above the cutoff")
	}
	linear := newCatSampler(large)
	sa := dist.NewStreamFromSeed(5)
	sb := dist.NewStreamFromSeed(5)
	sc := dist.NewStreamFromSeed(5)
	diff := 0
	const draws = 20_000
	for i := 0; i < draws; i++ {
		want := sampleCat(sc, large)
		if got := linear.sample(sb); got != want {
			t.Fatalf("draw %d: linear sampler = %d, re-summing scan = %d", i, got, want)
		}
		if cs.sample(sa) != want {
			diff++
		}
	}
	if diff > draws/1000 {
		t.Fatalf("binary-search sampler disagreed with linear scan on %d/%d draws", diff, draws)
	}
}

// TestCatSamplerTies: the counting scan must place a u that lands
// exactly on a partial sum where the exiting scan does, in the next
// category, and anything at or past the total in the last one. Random
// draws hit such ties with probability about 2⁻⁵³, so they are set here.
func TestCatSamplerTies(t *testing.T) {
	weights := []float64{1, 2, 0, 1, 0.5}
	cs := newCatSampler(weights)
	for _, u := range []float64{0, 0.5, 1, 2.999, 3, 3.5, 4, 4.25, 4.5, 5} {
		if got, want := cs.index(u), scanCat(weights, u); got != want {
			t.Errorf("u=%v: counting scan = %d, exiting scan = %d", u, got, want)
		}
	}
}

func TestNationalConfigValid(t *testing.T) {
	cfg := NationalConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumEstablishments < 5_000_000 || cfg.NumPlaces < 10_000 {
		t.Fatalf("national config too small: %d establishments, %d places",
			cfg.NumEstablishments, cfg.NumPlaces)
	}
	// The mean of the size mixture should put the configured establishment
	// count on the order of 130M jobs (body e^{μ+σ²/2}, tail αm/(α−1)).
	body := 12.18
	tail := cfg.SizeTail.Xm * cfg.SizeTail.Alpha / (cfg.SizeTail.Alpha - 1)
	mean := (1-cfg.TailProb)*body + cfg.TailProb*tail
	jobs := mean * float64(cfg.NumEstablishments)
	if jobs < 110e6 || jobs > 150e6 {
		t.Fatalf("national config implies %.0fM jobs, want ~130M", jobs/1e6)
	}
}

// TestStreamedIngestMemoryBounded is the acceptance check for the
// streaming path: consuming a generated job relation chunk-wise (here:
// scanning each chunk into an accumulated W1 marginal, the shape of a
// streaming ingest) must keep the heap bounded by the chunk size, not
// the relation size. The relation is ~40× the chunk; the allowed
// headroom is a small multiple of the chunk footprint.
func TestStreamedIngestMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("generates ~800k job rows")
	}
	cfg := DefaultConfig() // ~20k establishments, ~400k jobs
	cfg.NumEstablishments = 40_000

	s := dist.NewStreamFromSeed(77)
	f, err := GenerateFrame(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	const chunkRows = 1 << 15

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	q := table.MustNewQuery(f.Schema, AttrPlace, AttrIndustry, AttrOwnership)
	counts := make([]int64, q.NumCells())
	rows := 0
	var peak uint64
	if err := f.StreamJobs(s, chunkRows, func(c *table.Table) error {
		m := table.Compute(c, q)
		for i, v := range m.Counts {
			counts[i] += v
		}
		rows += c.NumRows()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != f.TotalJobs {
		t.Fatalf("streamed %d rows, want %d", rows, f.TotalJobs)
	}

	// The chunk table holds 8 uint16 columns + an int32 entity column
	// (20 B/row); the chunk's index, scratch, and marginal results ride
	// on top. Chunks overshoot by at most one establishment, whose size
	// the frame bounds. 12× chunk footprint is roomy for all of that but
	// ~8× below the materialized relation (f.TotalJobs rows), so holding
	// two table copies — or even one — fails loudly.
	maxEst := 0
	for _, e := range f.Establishments {
		if e.Employment > maxEst {
			maxEst = e.Employment
		}
	}
	chunkBytes := uint64(chunkRows+maxEst) * 20
	budget := uint64(before.HeapAlloc) + 12*chunkBytes
	if peak > budget {
		t.Fatalf("streaming ingest peaked at %d heap bytes; budget %d (chunk %d rows ≈ %d bytes, relation %d rows)",
			peak, budget, chunkRows, chunkBytes, f.TotalJobs)
	}
}
