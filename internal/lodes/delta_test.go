package lodes

import (
	"reflect"
	"testing"

	"repro/internal/dist"
)

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	cfg := TestConfig()
	cfg.NumEstablishments = 500
	return MustGenerate(cfg, dist.NewStreamFromSeed(9))
}

// TestGenerateDeltaDeterministic pins the generator contract: the same
// snapshot, configuration and stream seed always produce the same delta.
func TestGenerateDeltaDeterministic(t *testing.T) {
	d := testDataset(t)
	cfg := DefaultDeltaConfig()
	a, err := GenerateDelta(d, cfg, dist.NewStreamFromSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDelta(d, cfg, dist.NewStreamFromSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different deltas")
	}
	c, err := GenerateDelta(d, cfg, dist.NewStreamFromSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical deltas")
	}
	if a.Empty() {
		t.Fatal("default churn produced an empty delta")
	}
}

// TestApplyDeltaConsistency applies a generated quarter and checks the
// successor with the dataset's own consistency oracle: every job's
// attributes must match its establishment and per-establishment job
// counts must equal recorded employment.
func TestApplyDeltaConsistency(t *testing.T) {
	d := testDataset(t)
	dl, err := GenerateDelta(d, DefaultDeltaConfig(), dist.NewStreamFromSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	next, err := d.ApplyDelta(dl)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Validate(); err != nil {
		t.Fatalf("successor snapshot inconsistent: %v", err)
	}
	if next.Epoch != d.Epoch+1 {
		t.Errorf("Epoch = %d, want %d", next.Epoch, d.Epoch+1)
	}
	if next.Schema() != d.Schema() {
		t.Error("successor does not share the base schema")
	}
	if &next.Places[0] != &d.Places[0] {
		t.Error("successor does not share place metadata")
	}
	added, removed := dl.Jobs(d)
	if got, want := next.NumJobs(), d.NumJobs()+added-removed; got != want {
		t.Errorf("NumJobs = %d, want %d (base %d + %d - %d)", got, want, d.NumJobs(), added, removed)
	}
	if next.NumEstablishments() != d.NumEstablishments()+len(dl.Births) {
		t.Errorf("frame grew to %d, want %d", next.NumEstablishments(),
			d.NumEstablishments()+len(dl.Births))
	}
	for _, e := range dl.Deaths {
		if next.Establishments[e].Employment != 0 {
			t.Errorf("dead establishment %d still employs %d", e, next.Establishments[e].Employment)
		}
	}
	// Base snapshot untouched (snapshot isolation at the data layer).
	if err := d.Validate(); err != nil {
		t.Fatalf("base snapshot corrupted by ApplyDelta: %v", err)
	}
	if d.Epoch != 0 {
		t.Errorf("base epoch mutated to %d", d.Epoch)
	}
}

// TestDeltaTouchedMatchesSuccessor checks Touched's contract: the
// reported per-establishment row counts equal the successor's actual
// employments, and the set covers exactly the changed establishments.
func TestDeltaTouchedMatchesSuccessor(t *testing.T) {
	d := testDataset(t)
	dl, err := GenerateDelta(d, DefaultDeltaConfig(), dist.NewStreamFromSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	next, err := d.ApplyDelta(dl)
	if err != nil {
		t.Fatal(err)
	}
	ids, rows := dl.Touched(d)
	if len(ids) != len(rows) {
		t.Fatalf("Touched returned %d ids but %d row counts", len(ids), len(rows))
	}
	touched := make(map[int32]int32, len(ids))
	for i, e := range ids {
		if i > 0 && ids[i-1] >= e {
			t.Fatalf("Touched ids not strictly ascending at %d: %v", i, ids[:i+1])
		}
		touched[e] = rows[i]
		if got := int32(next.Establishments[e].Employment); got != rows[i] {
			t.Errorf("establishment %d: Touched rows %d, successor employment %d", e, rows[i], got)
		}
	}
	for i := range d.Establishments {
		if _, ok := touched[int32(i)]; ok {
			continue
		}
		if d.Establishments[i].Employment != next.Establishments[i].Employment {
			t.Errorf("establishment %d changed employment %d -> %d but is not in Touched",
				i, d.Establishments[i].Employment, next.Establishments[i].Employment)
		}
	}
}

// TestApplyDeltaChained runs several quarters, validating every epoch —
// deaths accumulate, so later generators must skip empty
// establishments.
func TestApplyDeltaChained(t *testing.T) {
	d := testDataset(t)
	cfg := DefaultDeltaConfig()
	cfg.DeathRate = 0.1 // force deaths so later quarters see empty frame entries
	cur := d
	for q := 1; q <= 4; q++ {
		dl, err := GenerateDelta(cur, cfg, dist.NewStreamFromSeed(int64(10+q)))
		if err != nil {
			t.Fatalf("quarter %d: %v", q, err)
		}
		next, err := cur.ApplyDelta(dl)
		if err != nil {
			t.Fatalf("quarter %d: %v", q, err)
		}
		if err := next.Validate(); err != nil {
			t.Fatalf("quarter %d snapshot inconsistent: %v", q, err)
		}
		if next.Epoch != q {
			t.Fatalf("quarter %d: epoch %d", q, next.Epoch)
		}
		cur = next
	}
}

// TestApplyDeltaManualEvents exercises each event kind explicitly,
// including two-sided churn on one establishment and rehiring into a
// previously emptied one.
func TestApplyDeltaManualEvents(t *testing.T) {
	d := testDataset(t)
	var grown int32 = -1
	for i := 1; i < len(d.Establishments); i++ {
		if d.Establishments[i].Employment >= 3 {
			grown = int32(i)
			break
		}
	}
	if grown < 0 {
		t.Fatal("no establishment with employment >= 3")
	}
	dl := &Delta{
		Deaths:      []int32{d.Establishments[0].ID},
		Hires:       []Hire{{Est: grown, Jobs: []JobRecord{{Sex: 1, Age: 3, Race: 0, Ethnicity: 1, Education: 2}}}},
		Separations: []Separation{{Est: grown, Count: 2}},
		Births: []Birth{{Place: 1, Industry: 6, Ownership: 0,
			Jobs: []JobRecord{{Age: 4}, {Sex: 1, Age: 2, Education: 3}}}},
	}
	next, err := d.ApplyDelta(dl)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := next.Establishments[grown].Employment, d.Establishments[grown].Employment-1; got != want {
		t.Errorf("two-sided churn: employment %d, want %d", got, want)
	}
	born := next.Establishments[len(next.Establishments)-1]
	if born.Employment != 2 || born.Place != 1 || born.Industry != 6 {
		t.Errorf("birth mis-applied: %+v", born)
	}

	// Rehire into the now-empty establishment 0 next quarter.
	dl2 := &Delta{Hires: []Hire{{Est: 0, Jobs: []JobRecord{{Age: 1}}}}}
	third, err := next.ApplyDelta(dl2)
	if err != nil {
		t.Fatal(err)
	}
	if err := third.Validate(); err != nil {
		t.Fatal(err)
	}
	if third.Establishments[0].Employment != 1 {
		t.Errorf("rehire into empty establishment: employment %d, want 1", third.Establishments[0].Employment)
	}
}

// TestDeltaValidateRejects pins the validation rules.
func TestDeltaValidateRejects(t *testing.T) {
	d := testDataset(t)
	emp0 := d.Establishments[0].Employment
	cases := []struct {
		name string
		dl   *Delta
	}{
		{"unknown-death", &Delta{Deaths: []int32{int32(d.NumEstablishments())}}},
		{"double-death", &Delta{Deaths: []int32{1, 1}}},
		{"dead-hires", &Delta{Deaths: []int32{2}, Hires: []Hire{{Est: 2, Jobs: []JobRecord{{}}}}}},
		{"dead-separates", &Delta{Deaths: []int32{2}, Separations: []Separation{{Est: 2, Count: 1}}}},
		{"empty-hire", &Delta{Hires: []Hire{{Est: 1}}}},
		{"double-hire", &Delta{Hires: []Hire{{Est: 1, Jobs: []JobRecord{{}}}, {Est: 1, Jobs: []JobRecord{{}}}}}},
		{"over-separation", &Delta{Separations: []Separation{{Est: 0, Count: emp0 + 1}}}},
		{"zero-separation", &Delta{Separations: []Separation{{Est: 0, Count: 0}}}},
		{"bad-job-code", &Delta{Hires: []Hire{{Est: 1, Jobs: []JobRecord{{Age: 99}}}}}},
		{"jobless-birth", &Delta{Births: []Birth{{Place: 0, Industry: 0}}}},
		{"bad-birth-place", &Delta{Births: []Birth{{Place: d.NumPlaces(), Industry: 0, Jobs: []JobRecord{{}}}}}},
	}
	for _, tc := range cases {
		if err := tc.dl.Validate(d); err == nil {
			t.Errorf("%s: Validate accepted an invalid delta", tc.name)
		}
		if _, err := d.ApplyDelta(tc.dl); err == nil {
			t.Errorf("%s: ApplyDelta accepted an invalid delta", tc.name)
		}
	}
}

// sampleCat is the categorical draw as the generator made it before
// each weight list's total was hoisted into its catSampler: re-sum the
// weights on every draw, then scan. It is the oracle the hoisted
// samplers must match draw for draw.
func sampleCat(s *dist.Stream, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	return scanCat(weights, s.Float64()*total)
}

// scanCat is sampleCat's subtractive scan of a scaled uniform u.
func scanCat(weights []float64, u float64) int {
	for i, w := range weights {
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// TestGeneratorUnchangedByDrawJobRefactor guards the snapshot
// generator's draw order: the shared drawJob helper, with its hoisted
// per-sector samplers, must reproduce the original inline per-job
// sequence in every sector, keeping generated datasets (and every golden
// number derived from them) bit-identical.
func TestGeneratorUnchangedByDrawJobRefactor(t *testing.T) {
	for sector := range NAICSSectors {
		s := dist.NewStreamFromSeed(77).Split("workers")
		ref := dist.NewStreamFromSeed(77).Split("workers")
		edu := educationDist(sector)
		fProb := femaleProb(sector)
		for i := 0; i < 100; i++ {
			got := drawJob(s, &sectorJobDists[sector])
			var want JobRecord
			if ref.Float64() < fProb {
				want.Sex = 1
			}
			want.Age = sampleCat(ref, ageDist[:])
			want.Race = sampleCat(ref, raceDist[:])
			if ref.Float64() < hispanicProb {
				want.Ethnicity = 1
			}
			want.Education = sampleCat(ref, edu[:])
			if got != want {
				t.Fatalf("sector %d draw %d: drawJob = %+v, inline sequence = %+v", sector, i, got, want)
			}
		}
	}
}

// TestDrawJobTakesJobDraws: the job kernel finds job i's draws at
// positions jobDraws·i of the workers stream, so drawJob must leave its
// stream exactly where Skip(jobDraws) would, in every sector. A draw
// added to drawJob fails here instead of silently shifting every job
// after it.
func TestDrawJobTakesJobDraws(t *testing.T) {
	if jobDraws != 5 {
		t.Fatalf("jobDraws = %d; the generated datasets are pinned at 5 draws per job", jobDraws)
	}
	for sector := range NAICSSectors {
		s := dist.NewStreamFromSeed(78).SplitIndex("sector", sector)
		skipped := dist.NewStreamFromSeed(78).SplitIndex("sector", sector)
		for i := 0; i < 50; i++ {
			drawJob(s, &sectorJobDists[sector])
			skipped.Skip(jobDraws)
			if a, b := s.Uint64(), skipped.Uint64(); a != b {
				t.Fatalf("sector %d job %d: drawJob left its stream off the Skip(%d) position", sector, i, jobDraws)
			}
		}
	}
}
