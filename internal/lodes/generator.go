package lodes

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/table"
)

// Config parameterizes the synthetic LODES generator. The defaults target
// the structural properties of the paper's 3-state 2011 sample at 1/26
// scale: a mean of ~20.7 jobs per establishment, a heavy right tail of
// establishment sizes, and place×industry×ownership marginals where most
// cells are small and many contain a single establishment.
type Config struct {
	// NumPlaces is the number of synthetic Census places.
	NumPlaces int
	// NumEstablishments is the number of workplaces to generate.
	NumEstablishments int

	// SizeBody is the log-normal body of the establishment-size mixture.
	SizeBody dist.LogNormal
	// SizeTail is the Pareto tail of the mixture (factories, hospitals,
	// universities).
	SizeTail dist.Pareto
	// TailProb is the probability an establishment is drawn from the tail.
	TailProb float64

	// PopExponentLo and PopExponentHi bound the log10 of place
	// populations, which are drawn log-uniformly. The default range
	// [1, 5.5) spans all four of the paper's strata.
	PopExponentLo, PopExponentHi float64
}

// DefaultConfig returns the configuration used by the experiment harness.
func DefaultConfig() Config {
	return Config{
		NumPlaces:         60,
		NumEstablishments: 20_000,
		SizeBody:          dist.NewLogNormal(2.0, 1.0),
		SizeTail:          dist.NewPareto(200, 1.3),
		TailProb:          0.01,
		PopExponentLo:     1.0,
		PopExponentHi:     5.5,
	}
}

// TestConfig returns a small configuration for fast unit tests
// (~2k establishments, ~40k jobs).
func TestConfig() Config {
	c := DefaultConfig()
	c.NumPlaces = 30
	c.NumEstablishments = 2_000
	return c
}

// LargeConfig returns the paper-scale configuration: ~500k
// establishments and, at the default mean of ~20.7 jobs per
// establishment, on the order of 10 million jobs — the magnitude of the
// paper's 3-state 2011 LODES sample. The place count grows with the
// establishment count so the per-place establishment density (and with
// it the prevalence of sparse single-establishment cells) stays
// comparable to the default configuration. This is the workload the
// scan-kernel benchmarks (BenchmarkLargeScale*, BENCH.json's trajectory)
// run the full release suite against; generating it takes tens of
// seconds, so nothing on the test path uses it.
func LargeConfig() Config {
	c := DefaultConfig()
	c.NumPlaces = 120
	c.NumEstablishments = 500_000
	return c
}

// NationalConfig returns the national-scale configuration: ~20k places
// and 7 million establishments, on the order of 130 million jobs — the
// magnitude of the full national LODES the paper's production system
// serves, an order of magnitude past LargeConfig. The tail probability
// is trimmed so the mean establishment size lands near the national
// ~18.6 jobs per establishment rather than the 3-state sample's ~20.7.
// A materialized WorkerFull at this scale is multiple gigabytes, so
// nothing builds it in one piece: national datasets exist only as a
// Frame whose job relation is drawn chunk-wise (GenerateFrame,
// Frame.StreamJobs) into a bounded reusable buffer.
func NationalConfig() Config {
	c := DefaultConfig()
	c.NumPlaces = 20_000
	c.NumEstablishments = 7_000_000
	c.TailProb = 0.0075
	return c
}

// Validate returns an error describing the first invalid field, if any.
func (c Config) Validate() error {
	if c.NumPlaces < 4 {
		return fmt.Errorf("lodes: NumPlaces must be >= 4 to cover all strata, got %d", c.NumPlaces)
	}
	if c.NumEstablishments < 1 {
		return fmt.Errorf("lodes: NumEstablishments must be >= 1, got %d", c.NumEstablishments)
	}
	if !(c.TailProb >= 0 && c.TailProb <= 1) {
		return fmt.Errorf("lodes: TailProb must be in [0,1], got %v", c.TailProb)
	}
	if !(c.PopExponentLo < c.PopExponentHi) {
		return fmt.Errorf("lodes: PopExponentLo must be < PopExponentHi")
	}
	return nil
}

// sector indexes into NAICSSectors for the per-sector parameter tables.
var (
	sectorIdx = func() map[string]int {
		m := make(map[string]int, len(NAICSSectors))
		for i, s := range NAICSSectors {
			m[s] = i
		}
		return m
	}()
)

// publicOwnershipProb returns the probability an establishment in the
// given sector is publicly owned.
func publicOwnershipProb(sector int) float64 {
	switch NAICSSectors[sector] {
	case "92-PublicAdministration":
		return 0.95
	case "61-Education":
		return 0.60
	case "22-Utilities":
		return 0.40
	case "62-Health":
		return 0.25
	default:
		return 0.05
	}
}

// femaleProb returns the probability a worker in the sector is female.
func femaleProb(sector int) float64 {
	switch NAICSSectors[sector] {
	case "62-Health":
		return 0.75
	case "61-Education":
		return 0.68
	case "23-Construction":
		return 0.10
	case "21-Mining":
		return 0.12
	case "31-Manufacturing":
		return 0.30
	default:
		return 0.48
	}
}

// educationDist returns the education distribution for the sector
// (LessThanHS, HighSchool, SomeCollege, BachelorsPlus).
func educationDist(sector int) [4]float64 {
	switch NAICSSectors[sector] {
	case "51-Information", "52-Finance", "54-Professional", "55-Management", "61-Education":
		return [4]float64{0.04, 0.15, 0.26, 0.55}
	case "11-Agriculture", "23-Construction", "72-Accommodation", "44-Retail", "56-Administrative":
		return [4]float64{0.22, 0.38, 0.26, 0.14}
	default:
		return [4]float64{0.12, 0.30, 0.30, 0.28}
	}
}

// Base worker-attribute distributions (shares summing to 1).
var (
	ageDist  = [8]float64{0.04, 0.07, 0.07, 0.24, 0.22, 0.19, 0.13, 0.04}
	raceDist = [6]float64{0.62, 0.13, 0.01, 0.07, 0.003, 0.167}
)

const hispanicProb = 0.18

// sectorWeights makes some industries far more common than others, which
// is what produces sparse cells in small places.
var sectorWeights = [20]float64{
	1.0, // Agriculture
	0.3, // Mining
	0.4, // Utilities
	3.5, // Construction
	2.5, // Manufacturing
	2.0, // Wholesale
	6.0, // Retail
	1.8, // Transportation
	1.0, // Information
	2.2, // Finance
	1.6, // RealEstate
	4.0, // Professional
	0.5, // Management
	2.8, // Administrative
	1.4, // Education
	4.5, // Health
	0.9, // Arts
	3.8, // Accommodation
	3.0, // OtherServices
	0.8, // PublicAdministration
}

// sampleCat draws an index from the categorical distribution with the
// given weights (not necessarily normalized).
func sampleCat(s *dist.Stream, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	u := s.Float64() * total
	for i, w := range weights {
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// linearSampleMax is the weight-list size up to which catSampler keeps
// the plain subtractive scan. Every pre-national configuration (≤120
// places) stays below it, so their draw sequences — and therefore every
// recorded dataset and delta chain — are unchanged; only national-scale
// place lists switch to the log-time sampler, whose draws differ from
// the linear scan's only by floating-point association at bin edges.
const linearSampleMax = 256

// catSampler draws from one fixed categorical distribution many times.
// Small weight lists use sampleCat verbatim; large ones precompute the
// prefix-sum table once and binary-search it, turning the O(places)
// per-establishment placement draw — untenable at 20k places × 7M
// establishments — into O(log places).
type catSampler struct {
	weights []float64
	cum     []float64 // nil for linear sampling
}

func newCatSampler(weights []float64) *catSampler {
	cs := &catSampler{weights: weights}
	if len(weights) > linearSampleMax {
		cs.cum = make([]float64, len(weights))
		total := 0.0
		for i, w := range weights {
			total += w
			cs.cum[i] = total
		}
	}
	return cs
}

func (cs *catSampler) sample(s *dist.Stream) int {
	if cs.cum == nil {
		return sampleCat(s, cs.weights)
	}
	u := s.Float64() * cs.cum[len(cs.cum)-1]
	lo, hi := 0, len(cs.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if u < cs.cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Frame is the entity-level half of a snapshot: place metadata and the
// establishment frame, with the job relation not yet drawn. At national
// scale the job relation is gigabytes, so the frame is the object that
// gets materialized and the jobs exist only as a chunk stream
// (StreamJobs) — a consumer that aggregates or writes as it goes never
// holds more than one chunk of job rows.
type Frame struct {
	Schema         *table.Schema
	Places         []Place
	Establishments []Establishment
	// TotalJobs is the number of job records StreamJobs will produce,
	// known at frame time because employment is drawn per establishment.
	TotalJobs int
}

// GenerateFrame draws the places and the establishment frame from the
// configuration and stream — everything except the job relation. The
// draws are identical to the first two phases of Generate: a frame plus
// its StreamJobs chunks reproduce Generate's dataset exactly.
func GenerateFrame(cfg Config, s *dist.Stream) (*Frame, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	schema := NewSchema(cfg.NumPlaces)

	// Places: one forced into each stratum so stratified experiments never
	// see an empty stratum, the rest log-uniform across the exponent range.
	placeStream := s.Split("places")
	places := make([]Place, cfg.NumPlaces)
	forced := []int{50, 5_000, 50_000, 200_000}
	for i := range places {
		var pop int
		if i < len(forced) {
			pop = forced[i]
		} else {
			exp := cfg.PopExponentLo + placeStream.Float64()*(cfg.PopExponentHi-cfg.PopExponentLo)
			pop = int(math.Round(math.Pow(10, exp)))
		}
		places[i] = Place{Name: PlaceName(i), Population: pop}
	}

	// Establishment placement weights grow sublinearly with population
	// (sqrt, plus a floor of 2): big places get many establishments while
	// tiny places still get a handful — matching real Census places, where
	// even sub-100-population places host some employers. This produces
	// the sparse single-establishment cells the Section 5.2 attacks and
	// the smooth-sensitivity analysis both care about, without leaving the
	// smallest population stratum empty.
	placeWeights := make([]float64, cfg.NumPlaces)
	for i, p := range places {
		placeWeights[i] = math.Sqrt(float64(p.Population)) + 2
	}
	placePicker := newCatSampler(placeWeights)

	sizeDist := dist.NewSkewedSize(cfg.SizeBody, cfg.SizeTail, cfg.TailProb)
	estStream := s.Split("establishments")

	ests := make([]Establishment, cfg.NumEstablishments)
	totalJobs := 0
	for i := range ests {
		place := placePicker.sample(estStream)
		sector := sampleCat(estStream, sectorWeights[:])
		own := 0
		if estStream.Float64() < publicOwnershipProb(sector) {
			own = 1
		}
		size := sizeDist.Sample(estStream)
		ests[i] = Establishment{
			ID: int32(i), Place: place, Industry: sector, Ownership: own, Employment: size,
		}
		totalJobs += size
	}
	return &Frame{Schema: schema, Places: places, Establishments: ests, TotalJobs: totalJobs}, nil
}

// DefaultChunkRows is the default StreamJobs chunk granularity: large
// enough that per-chunk overheads vanish, small enough that a chunk of
// the 8-attribute worker relation stays in the tens of megabytes.
const DefaultChunkRows = 1 << 20

// StreamJobs draws the frame's job relation in establishment-ordered
// chunks, calling fn with a reused buffer table after each fills to at
// least chunkRows rows (establishments are never split across chunks,
// so every chunk is entity-sorted and a chunk can overshoot by at most
// one establishment's workforce). s must be the same stream GenerateFrame
// consumed — Split is a pure function of stream identity, so the worker
// draws land exactly where Generate's would, and concatenating the
// chunks reproduces Generate's WorkerFull bit for bit. The buffer is
// reset after every call; fn must copy anything it keeps.
func (f *Frame) StreamJobs(s *dist.Stream, chunkRows int, fn func(chunk *table.Table) error) error {
	if chunkRows < 1 {
		chunkRows = DefaultChunkRows
	}
	workerStream := s.Split("workers")
	buf := table.NewWithCapacity(f.Schema, chunkRows)
	var eduW [4]float64
	for _, est := range f.Establishments {
		edu := educationDist(est.Industry)
		copy(eduW[:], edu[:])
		fProb := femaleProb(est.Industry)
		for j := 0; j < est.Employment; j++ {
			jr := drawJob(workerStream, fProb, eduW[:])
			buf.AppendRow(est.ID,
				est.Place, est.Industry, est.Ownership,
				jr.Sex, jr.Age, jr.Race, jr.Ethnicity, jr.Education)
		}
		if buf.NumRows() >= chunkRows {
			if err := fn(buf); err != nil {
				return err
			}
			buf.Reset()
		}
	}
	if buf.NumRows() > 0 {
		return fn(buf)
	}
	return nil
}

// Generate produces a synthetic LODES snapshot from the configuration and
// stream. The same configuration and stream seed always produce the same
// dataset. It is GenerateFrame plus StreamJobs materialized into one
// table; callers that can consume the job relation incrementally should
// stream instead and skip the full materialization.
func Generate(cfg Config, s *dist.Stream) (*Dataset, error) {
	f, err := GenerateFrame(cfg, s)
	if err != nil {
		return nil, err
	}
	full := table.NewWithCapacity(f.Schema, f.TotalJobs)
	if err := f.StreamJobs(s, DefaultChunkRows, func(chunk *table.Table) error {
		full.AppendSpan(chunk, 0, chunk.NumRows())
		return nil
	}); err != nil {
		return nil, err
	}
	return &Dataset{WorkerFull: full, Establishments: f.Establishments, Places: f.Places}, nil
}

// MustGenerate is Generate but panics on configuration errors; for use
// with the validated default configurations.
func MustGenerate(cfg Config, s *dist.Stream) *Dataset {
	d, err := Generate(cfg, s)
	if err != nil {
		panic(err)
	}
	return d
}
