package lodes

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/table"
)

func genTest(t *testing.T, seed int64) *Dataset {
	t.Helper()
	d, err := Generate(TestConfig(), dist.NewStreamFromSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateDeterministic(t *testing.T) {
	a := genTest(t, 1)
	b := genTest(t, 1)
	if a.NumJobs() != b.NumJobs() {
		t.Fatalf("job counts differ: %d vs %d", a.NumJobs(), b.NumJobs())
	}
	for i := range a.Establishments {
		if a.Establishments[i] != b.Establishments[i] {
			t.Fatalf("establishment %d differs", i)
		}
	}
	for row := 0; row < a.NumJobs(); row += 997 {
		for attr := 0; attr < a.Schema().NumAttrs(); attr++ {
			if a.WorkerFull.Code(row, attr) != b.WorkerFull.Code(row, attr) {
				t.Fatalf("job %d attr %d differs", row, attr)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := genTest(t, 1)
	b := genTest(t, 2)
	if a.NumJobs() == b.NumJobs() && a.Establishments[0] == b.Establishments[0] {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateValidates(t *testing.T) {
	d := genTest(t, 3)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateScale(t *testing.T) {
	d := genTest(t, 4)
	cfg := TestConfig()
	if d.NumEstablishments() != cfg.NumEstablishments {
		t.Fatalf("establishments = %d, want %d", d.NumEstablishments(), cfg.NumEstablishments)
	}
	mean := float64(d.NumJobs()) / float64(d.NumEstablishments())
	// The paper's sample has 10.9M jobs / 527k establishments ~ 20.7.
	if mean < 12 || mean > 32 {
		t.Errorf("mean establishment size = %v, want near the paper's ~20.7", mean)
	}
}

func TestLargeConfigValid(t *testing.T) {
	cfg := LargeConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's 3-state 2011 sample has 527k establishments; the large
	// configuration must be at that magnitude, and the place domain must
	// still fit the uint16 code columns with room to spare.
	if cfg.NumEstablishments < 400_000 {
		t.Errorf("NumEstablishments = %d, want paper scale (>= 400k)", cfg.NumEstablishments)
	}
	if cfg.NumPlaces > 10_000 {
		t.Errorf("NumPlaces = %d too large for the code columns", cfg.NumPlaces)
	}
	// Generating the large dataset takes tens of seconds, so it happens
	// only in the scan-kernel benchmarks, never here.
}

func TestGenerateRightSkewed(t *testing.T) {
	d := genTest(t, 5)
	sizes := make([]int, 0, d.NumEstablishments())
	var sum float64
	for _, e := range d.Establishments {
		sizes = append(sizes, e.Employment)
		sum += float64(e.Employment)
	}
	sort.Ints(sizes)
	mean := sum / float64(len(sizes))
	median := float64(sizes[len(sizes)/2])
	if mean < 1.5*median {
		t.Errorf("mean %v vs median %v: establishment sizes not right-skewed", mean, median)
	}
	if d.MaxEmployment() < 500 {
		t.Errorf("max employment %d: missing heavy tail", d.MaxEmployment())
	}
}

func TestGenerateStrataCovered(t *testing.T) {
	d := genTest(t, 6)
	var seen [NumStrata]bool
	for _, s := range d.PlaceStrata() {
		seen[s] = true
	}
	for s := SizeStratum(0); s < NumStrata; s++ {
		if !seen[s] {
			t.Errorf("stratum %v has no places", s)
		}
	}
}

func TestGenerateSparseCells(t *testing.T) {
	// The evaluation regime requires many place×industry×ownership cells
	// with exactly one establishment.
	d := genTest(t, 7)
	q := table.MustNewQuery(d.Schema(), AttrPlace, AttrIndustry, AttrOwnership)
	m := table.Compute(d.WorkerFull, q)
	single := 0
	for cell := range m.Counts {
		if m.EntityCount[cell] == 1 {
			single++
		}
	}
	if single < 20 {
		t.Errorf("only %d single-establishment cells; need a sparse regime", single)
	}
}

func TestGenerateMaxEntityContributionMatchesEmployment(t *testing.T) {
	// For establishment-attribute-only marginals, x_v of a cell must equal
	// the employment of the largest establishment in the cell.
	d := genTest(t, 8)
	q := table.MustNewQuery(d.Schema(), AttrPlace, AttrIndustry, AttrOwnership)
	m := table.Compute(d.WorkerFull, q)
	want := make([]int64, q.NumCells())
	for _, e := range d.Establishments {
		cell := q.CellKey(e.Place, e.Industry, e.Ownership)
		if int64(e.Employment) > want[cell] {
			want[cell] = int64(e.Employment)
		}
	}
	for cell := range want {
		if m.MaxEntityContribution[cell] != want[cell] {
			t.Fatalf("cell %d x_v = %d, want %d", cell, m.MaxEntityContribution[cell], want[cell])
		}
	}
}

func TestGenerateOwnershipCorrelation(t *testing.T) {
	d := genTest(t, 9)
	pubAdmin := SectorIndex("92-PublicAdministration")
	retail := SectorIndex("44-Retail")
	var pubAdminPublic, pubAdminTotal, retailPublic, retailTotal int
	for _, e := range d.Establishments {
		switch e.Industry {
		case pubAdmin:
			pubAdminTotal++
			if e.Ownership == 1 {
				pubAdminPublic++
			}
		case retail:
			retailTotal++
			if e.Ownership == 1 {
				retailPublic++
			}
		}
	}
	if pubAdminTotal == 0 || retailTotal == 0 {
		t.Skip("sector not sampled at this size")
	}
	pubRate := float64(pubAdminPublic) / float64(pubAdminTotal)
	retailRate := float64(retailPublic) / float64(retailTotal)
	if pubRate < 0.8 {
		t.Errorf("public administration public-ownership rate = %v, want > 0.8", pubRate)
	}
	if retailRate > 0.15 {
		t.Errorf("retail public-ownership rate = %v, want < 0.15", retailRate)
	}
}

func TestGenerateWorkerMarginals(t *testing.T) {
	d := genTest(t, 10)
	q := table.MustNewQuery(d.Schema(), AttrSex)
	m := table.Compute(d.WorkerFull, q)
	fShare := float64(m.Counts[1]) / float64(m.Total())
	if fShare < 0.3 || fShare > 0.7 {
		t.Errorf("female share = %v, implausible", fShare)
	}
	qe := table.MustNewQuery(d.Schema(), AttrEthnicity)
	me := table.Compute(d.WorkerFull, qe)
	hShare := float64(me.Counts[1]) / float64(me.Total())
	if math.Abs(hShare-hispanicProb) > 0.02 {
		t.Errorf("hispanic share = %v, want ~%v", hShare, hispanicProb)
	}
}

func TestStratumForPopulation(t *testing.T) {
	cases := []struct {
		pop  int
		want SizeStratum
	}{
		{0, StratumUnder100}, {99, StratumUnder100},
		{100, Stratum100To10k}, {9_999, Stratum100To10k},
		{10_000, Stratum10kTo100k}, {99_999, Stratum10kTo100k},
		{100_000, StratumOver100k}, {5_000_000, StratumOver100k},
	}
	for _, c := range cases {
		if got := StratumForPopulation(c.pop); got != c.want {
			t.Errorf("StratumForPopulation(%d) = %v, want %v", c.pop, got, c.want)
		}
	}
}

func TestStratumString(t *testing.T) {
	if StratumUnder100.String() == "" || StratumOver100k.String() == "" {
		t.Error("stratum String empty")
	}
	if SizeStratum(99).String() != "SizeStratum(99)" {
		t.Error("unknown stratum String wrong")
	}
}

func TestWorkerAttrClassification(t *testing.T) {
	for _, a := range WorkerAttrs() {
		if !IsWorkerAttr(a) || IsWorkplaceAttr(a) {
			t.Errorf("attribute %q misclassified", a)
		}
	}
	for _, a := range WorkplaceAttrs() {
		if !IsWorkplaceAttr(a) || IsWorkerAttr(a) {
			t.Errorf("attribute %q misclassified", a)
		}
	}
}

func TestWorkerAttrDomainSize(t *testing.T) {
	schema := NewSchema(10)
	// sex(2) x education(4) = 8; workplace attrs contribute nothing.
	got := WorkerAttrDomainSize(schema, []string{AttrPlace, AttrSex, AttrEducation})
	if got != 8 {
		t.Errorf("WorkerAttrDomainSize = %d, want 8", got)
	}
	if got := WorkerAttrDomainSize(schema, []string{AttrPlace}); got != 1 {
		t.Errorf("workplace-only domain size = %d, want 1", got)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{NumPlaces: 2, NumEstablishments: 10, TailProb: 0.1, PopExponentLo: 1, PopExponentHi: 5},
		{NumPlaces: 10, NumEstablishments: 0, TailProb: 0.1, PopExponentLo: 1, PopExponentHi: 5},
		{NumPlaces: 10, NumEstablishments: 10, TailProb: 1.5, PopExponentLo: 1, PopExponentHi: 5},
		{NumPlaces: 10, NumEstablishments: 10, TailProb: 0.1, PopExponentLo: 5, PopExponentHi: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated but is invalid", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestEstablishmentsOver(t *testing.T) {
	d := &Dataset{Establishments: []Establishment{
		{Employment: 10}, {Employment: 1000}, {Employment: 1001}, {Employment: 5000},
	}}
	if got := d.EstablishmentsOver(1000); got != 2 {
		t.Errorf("EstablishmentsOver(1000) = %d, want 2", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := genTest(t, 11)
	d.Establishments[0].Employment++
	if err := d.Validate(); err == nil {
		t.Error("Validate missed employment mismatch")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	cfg := TestConfig()
	cfg.NumEstablishments = 200
	d, err := Generate(cfg, dist.NewStreamFromSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := d.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumJobs() != d.NumJobs() || got.NumEstablishments() != d.NumEstablishments() {
		t.Fatalf("round trip size mismatch: %d/%d jobs, %d/%d establishments",
			got.NumJobs(), d.NumJobs(), got.NumEstablishments(), d.NumEstablishments())
	}
	for i := range d.Establishments {
		if got.Establishments[i] != d.Establishments[i] {
			t.Fatalf("establishment %d differs after round trip", i)
		}
	}
	for i, p := range d.Places {
		if got.Places[i] != p {
			t.Fatalf("place %d differs after round trip", i)
		}
	}
	// Worker attribute marginals must be preserved exactly.
	for _, attr := range WorkerAttrs() {
		qa := table.MustNewQuery(d.Schema(), attr)
		qb := table.MustNewQuery(got.Schema(), attr)
		ma := table.Compute(d.WorkerFull, qa)
		mb := table.Compute(got.WorkerFull, qb)
		for c := range ma.Counts {
			if ma.Counts[c] != mb.Counts[c] {
				t.Fatalf("attr %s cell %d differs after round trip", attr, c)
			}
		}
	}
}

func TestReadCSVMissingDir(t *testing.T) {
	if _, err := ReadCSV(t.TempDir() + "/nope"); err == nil {
		t.Error("ReadCSV of missing directory did not error")
	}
}

func TestReadCSVCorruptInputs(t *testing.T) {
	// Failure injection: each corruption of a valid on-disk snapshot must
	// surface as an error, never a silently wrong dataset.
	cfg := TestConfig()
	cfg.NumEstablishments = 50
	d, err := Generate(cfg, dist.NewStreamFromSeed(60))
	if err != nil {
		t.Fatal(err)
	}
	write := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		if err := d.WriteCSV(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	corrupt := func(t *testing.T, dir, file, old, new string) {
		t.Helper()
		path := filepath.Join(dir, file)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s := strings.Replace(string(data), old, new, 1)
		if s == string(data) {
			t.Fatalf("corruption %q -> %q did not apply to %s", old, new, file)
		}
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("bad population", func(t *testing.T) {
		dir := write(t)
		corrupt(t, dir, "places.csv", "place-0000,50", "place-0000,fifty")
		if _, err := ReadCSV(dir); err == nil {
			t.Error("bad population accepted")
		}
	})
	t.Run("unknown industry", func(t *testing.T) {
		dir := write(t)
		corrupt(t, dir, "establishments.csv", "44-Retail", "99-Nonsense")
		if _, err := ReadCSV(dir); err == nil {
			t.Error("unknown industry accepted")
		}
	})
	t.Run("employment mismatch fails validation", func(t *testing.T) {
		dir := write(t)
		// Bump establishment 0's recorded employment without touching jobs.
		emp := d.Establishments[0].Employment
		corrupt(t, dir, "establishments.csv",
			fmt.Sprintf("0,%s,%s,%s,%d", PlaceName(d.Establishments[0].Place),
				NAICSSectors[d.Establishments[0].Industry],
				OwnershipClasses[d.Establishments[0].Ownership], emp),
			fmt.Sprintf("0,%s,%s,%s,%d", PlaceName(d.Establishments[0].Place),
				NAICSSectors[d.Establishments[0].Industry],
				OwnershipClasses[d.Establishments[0].Ownership], emp+1))
		if _, err := ReadCSV(dir); err == nil {
			t.Error("employment/jobs mismatch accepted")
		}
	})
	t.Run("dangling job reference", func(t *testing.T) {
		dir := write(t)
		corrupt(t, dir, "jobs.csv", "\n0,", "\n9999,")
		if _, err := ReadCSV(dir); err == nil {
			t.Error("dangling establishment reference accepted")
		}
	})
	t.Run("missing file", func(t *testing.T) {
		dir := write(t)
		if err := os.Remove(filepath.Join(dir, "jobs.csv")); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCSV(dir); err == nil {
			t.Error("missing jobs.csv accepted")
		}
	})
}

// SectorIndex returns the code of the named NAICS sector, or -1.
func SectorIndex(name string) int {
	if i, ok := sectorIdx[name]; ok {
		return i
	}
	return -1
}
