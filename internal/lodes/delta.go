package lodes

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/table"
)

// Quarterly deltas: the longitudinal update model. QWI-style statistics
// absorb a new quarter of microdata every release cycle — hires,
// separations, establishment births and deaths — and the versioned
// dataset models exactly those four event kinds. A Delta is applied
// with Dataset.ApplyDelta, which produces a new epoch snapshot (the
// base is never mutated); GenerateDelta draws a realistic deterministic
// quarter of churn from the same sector-conditioned distributions the
// snapshot generator uses.

// JobRecord holds the worker-attribute codes of one job, in schema
// order (the workplace attributes come from the establishment).
type JobRecord struct {
	Sex, Age, Race, Ethnicity, Education int
}

// Birth is a new establishment opening with its initial workforce. Its
// ID is assigned by ApplyDelta: the base frame size plus the birth's
// position in the delta.
type Birth struct {
	Place, Industry, Ownership int
	Jobs                       []JobRecord
}

// Hire adds jobs to an existing establishment.
type Hire struct {
	Est  int32
	Jobs []JobRecord
}

// Separation removes the establishment's most recent Count jobs (its
// last Count WorkerFull rows).
type Separation struct {
	Est   int32
	Count int
}

// Delta is one quarter of longitudinal change: establishment births and
// deaths, and per-establishment hires and separations. At most one Hire
// and one Separation per establishment; an establishment may have both
// (two-sided churn) but a dead establishment may have neither.
type Delta struct {
	Births      []Birth
	Deaths      []int32
	Hires       []Hire
	Separations []Separation
}

// Empty reports whether the delta changes nothing.
func (dl *Delta) Empty() bool {
	return len(dl.Births) == 0 && len(dl.Deaths) == 0 &&
		len(dl.Hires) == 0 && len(dl.Separations) == 0
}

// Jobs returns the delta's job-level magnitude: rows added and removed.
func (dl *Delta) Jobs(base *Dataset) (added, removed int) {
	for _, b := range dl.Births {
		added += len(b.Jobs)
	}
	for _, h := range dl.Hires {
		added += len(h.Jobs)
	}
	for _, s := range dl.Separations {
		removed += s.Count
	}
	for _, e := range dl.Deaths {
		removed += base.Establishments[e].Employment
	}
	return added, removed
}

// validateJobs checks every worker-attribute code against the schema.
func validateJobs(schema *table.Schema, jobs []JobRecord, what string) error {
	sexN := schema.Attr(schema.MustAttrIndex(AttrSex)).Size()
	ageN := schema.Attr(schema.MustAttrIndex(AttrAge)).Size()
	raceN := schema.Attr(schema.MustAttrIndex(AttrRace)).Size()
	ethN := schema.Attr(schema.MustAttrIndex(AttrEthnicity)).Size()
	eduN := schema.Attr(schema.MustAttrIndex(AttrEducation)).Size()
	for i, j := range jobs {
		switch {
		case j.Sex < 0 || j.Sex >= sexN,
			j.Age < 0 || j.Age >= ageN,
			j.Race < 0 || j.Race >= raceN,
			j.Ethnicity < 0 || j.Ethnicity >= ethN,
			j.Education < 0 || j.Education >= eduN:
			return fmt.Errorf("lodes: %s job %d has out-of-range attribute codes %+v", what, i, j)
		}
	}
	return nil
}

// Validate checks the delta against the base snapshot it is meant to
// apply to, returning the first inconsistency found.
func (dl *Delta) Validate(base *Dataset) error {
	numEsts := base.NumEstablishments()
	schema := base.Schema()
	// Dense per-establishment flags: churn deltas touch most of the
	// frame, so frame-sized arrays beat maps on this hot ingest path.
	const (
		flagDead = 1 << iota
		flagHire
		flagSep
	)
	flags := make([]uint8, numEsts)
	for _, e := range dl.Deaths {
		if e < 0 || int(e) >= numEsts {
			return fmt.Errorf("lodes: delta death of unknown establishment %d", e)
		}
		if flags[e]&flagDead != 0 {
			return fmt.Errorf("lodes: establishment %d dies twice", e)
		}
		if base.Establishments[e].Employment == 0 {
			return fmt.Errorf("lodes: establishment %d is already empty, cannot die", e)
		}
		flags[e] |= flagDead
	}
	for _, h := range dl.Hires {
		if h.Est < 0 || int(h.Est) >= numEsts {
			return fmt.Errorf("lodes: delta hire into unknown establishment %d", h.Est)
		}
		if flags[h.Est]&flagDead != 0 {
			return fmt.Errorf("lodes: establishment %d both dies and hires", h.Est)
		}
		if flags[h.Est]&flagHire != 0 {
			return fmt.Errorf("lodes: establishment %d has two hire events", h.Est)
		}
		flags[h.Est] |= flagHire
		if len(h.Jobs) == 0 {
			return fmt.Errorf("lodes: empty hire event for establishment %d", h.Est)
		}
		if err := validateJobs(schema, h.Jobs, fmt.Sprintf("hire(est=%d)", h.Est)); err != nil {
			return err
		}
	}
	for _, s := range dl.Separations {
		if s.Est < 0 || int(s.Est) >= numEsts {
			return fmt.Errorf("lodes: delta separation from unknown establishment %d", s.Est)
		}
		if flags[s.Est]&flagDead != 0 {
			return fmt.Errorf("lodes: establishment %d both dies and separates", s.Est)
		}
		if flags[s.Est]&flagSep != 0 {
			return fmt.Errorf("lodes: establishment %d has two separation events", s.Est)
		}
		flags[s.Est] |= flagSep
		if s.Count < 1 || s.Count > base.Establishments[s.Est].Employment {
			return fmt.Errorf("lodes: separation of %d jobs from establishment %d with employment %d",
				s.Count, s.Est, base.Establishments[s.Est].Employment)
		}
	}
	for i, b := range dl.Births {
		if b.Place < 0 || b.Place >= base.NumPlaces() {
			return fmt.Errorf("lodes: birth %d in unknown place %d", i, b.Place)
		}
		if b.Industry < 0 || b.Industry >= len(NAICSSectors) {
			return fmt.Errorf("lodes: birth %d in unknown industry %d", i, b.Industry)
		}
		if b.Ownership < 0 || b.Ownership > 1 {
			return fmt.Errorf("lodes: birth %d has unknown ownership %d", i, b.Ownership)
		}
		if len(b.Jobs) == 0 {
			return fmt.Errorf("lodes: birth %d opens with no jobs", i)
		}
		if err := validateJobs(schema, b.Jobs, fmt.Sprintf("birth(%d)", i)); err != nil {
			return err
		}
	}
	return nil
}

// Touched returns the delta's touched-establishment set against the
// base snapshot — every establishment whose WorkerFull rows change,
// sorted ascending — together with each one's row count in the
// successor snapshot. This is exactly the input the incremental index
// maintenance (table.MergeIndex) and the affected-cell computation
// (table.AffectedCells) consume.
func (dl *Delta) Touched(base *Dataset) (ids, rows []int32) {
	ids, rows, _ = dl.TouchedKept(base)
	return ids, rows
}

// TouchedKept is Touched extended with each touched establishment's
// kept-prefix count: how many of its base WorkerFull rows survive
// verbatim as the prefix of its successor group under ApplyDelta's
// layout (base rows minus separations for survivors; zero for deaths,
// which keep no rows, and births, which had none). This is the exact
// per-establishment description the incremental view-maintenance
// kernel (table.NewPatchFrame) consumes.
func (dl *Delta) TouchedKept(base *Dataset) (ids, rows, kept []int32) {
	// Dense per-establishment accumulation: a heavy churn quarter
	// touches most of the frame, so the frame-sized array beats a map.
	newEmp := make([]int32, base.NumEstablishments())
	keptEmp := make([]int32, len(newEmp))
	touched := make([]bool, len(newEmp))
	touch := func(e int32) {
		if !touched[e] {
			touched[e] = true
			newEmp[e] = int32(base.Establishments[e].Employment)
			keptEmp[e] = newEmp[e]
		}
	}
	for _, e := range dl.Deaths {
		touch(e)
		newEmp[e] = 0
		keptEmp[e] = 0
	}
	for _, h := range dl.Hires {
		touch(h.Est)
		newEmp[h.Est] += int32(len(h.Jobs))
	}
	for _, s := range dl.Separations {
		touch(s.Est)
		newEmp[s.Est] -= int32(s.Count)
		keptEmp[s.Est] -= int32(s.Count)
	}
	n := 0
	for _, t := range touched {
		if t {
			n++
		}
	}
	ids = make([]int32, 0, n+len(dl.Births))
	rows = make([]int32, 0, n+len(dl.Births))
	kept = make([]int32, 0, n+len(dl.Births))
	for e, t := range touched {
		if t {
			ids = append(ids, int32(e))
			rows = append(rows, newEmp[e])
			kept = append(kept, keptEmp[e])
		}
	}
	for i, b := range dl.Births {
		ids = append(ids, int32(base.NumEstablishments()+i))
		rows = append(rows, int32(len(b.Jobs)))
		kept = append(kept, 0)
	}
	return ids, rows, kept
}

// establishmentSpans locates each establishment's contiguous WorkerFull
// row span, verifying the relation is entity-ordered (rows grouped by
// non-decreasing establishment ID) — the layout every generated or
// delta-built snapshot has, and the one ApplyDelta preserves.
func establishmentSpans(d *Dataset) ([][2]int32, error) {
	spans := make([][2]int32, d.NumEstablishments())
	ents := d.WorkerFull.Entities()
	for i := 0; i < len(ents); {
		e := ents[i]
		if e < 0 || int(e) >= len(spans) {
			return nil, fmt.Errorf("lodes: WorkerFull row %d has invalid establishment %d", i, e)
		}
		if i > 0 && e <= ents[i-1] {
			return nil, fmt.Errorf("lodes: WorkerFull is not entity-ordered at row %d", i)
		}
		j := i + 1
		for j < len(ents) && ents[j] == e {
			j++
		}
		spans[e] = [2]int32{int32(i), int32(j)}
		i = j
	}
	return spans, nil
}

// ApplyDelta absorbs one quarter of change into a new epoch snapshot:
// a fresh entity-ordered WorkerFull relation (untouched establishments'
// rows copied span-wise, touched groups rebuilt, births appended under
// new IDs), an updated establishment frame (deaths keep their entry
// with Employment 0, so IDs stay dense), and Epoch+1. The base dataset
// is not modified, and the successor shares its schema and place
// metadata — compiled queries remain valid across epochs.
//
// Separations drop the establishment's last rows; hires append after
// its kept rows. The successor's layout is exactly what
// table.MergeIndex expects, so the entity-sorted index can be
// maintained incrementally instead of rebuilt.
func (d *Dataset) ApplyDelta(dl *Delta) (*Dataset, error) {
	if err := dl.Validate(d); err != nil {
		return nil, err
	}
	spans, err := establishmentSpans(d)
	if err != nil {
		return nil, err
	}

	// Dense per-establishment event views (the frame-sized arrays are
	// cheaper than maps under heavy churn).
	dead := make([]bool, len(d.Establishments))
	for _, e := range dl.Deaths {
		dead[e] = true
	}
	seps := make([]int, len(d.Establishments))
	for _, s := range dl.Separations {
		seps[s.Est] = s.Count
	}
	hires := make([][]JobRecord, len(d.Establishments))
	for _, h := range dl.Hires {
		hires[h.Est] = h.Jobs
	}

	added, removed := dl.Jobs(d)
	ests := append([]Establishment(nil), d.Establishments...)
	full := table.NewWithCapacity(d.Schema(), d.NumJobs()+added-removed)
	old := d.WorkerFull
	// Kept rows are copied a run at a time: [runLo, runHi) collects the
	// kept spans of consecutive establishments while they abut in the
	// base relation, and one AppendSpan copies the run when a gap (a
	// death, a separation) or a hire's new rows end it.
	runLo, runHi := 0, 0
	for i := range ests {
		e := int32(i)
		if dead[e] {
			ests[i].Employment = 0
			continue
		}
		lo, keep := int(spans[e][0]), int(spans[e][1])-seps[e]
		if keep > lo {
			if lo != runHi {
				full.AppendSpan(old, runLo, runHi)
				runLo = lo
			}
			runHi = keep
		}
		est := &ests[i]
		if len(hires[e]) > 0 {
			full.AppendSpan(old, runLo, runHi)
			runLo = runHi
			for _, j := range hires[e] {
				full.AppendRow(e, est.Place, est.Industry, est.Ownership,
					j.Sex, j.Age, j.Race, j.Ethnicity, j.Education)
			}
		}
		est.Employment += len(hires[e]) - seps[e]
	}
	full.AppendSpan(old, runLo, runHi)
	for i, b := range dl.Births {
		id := int32(len(d.Establishments) + i)
		ests = append(ests, Establishment{
			ID: id, Place: b.Place, Industry: b.Industry, Ownership: b.Ownership,
			Employment: len(b.Jobs),
		})
		for _, j := range b.Jobs {
			full.AppendRow(id, b.Place, b.Industry, b.Ownership,
				j.Sex, j.Age, j.Race, j.Ethnicity, j.Education)
		}
	}

	return &Dataset{
		WorkerFull:     full,
		Establishments: ests,
		Places:         d.Places,
		Epoch:          d.Epoch + 1,
	}, nil
}

// DeltaConfig parameterizes the quarterly delta generator. The defaults
// mirror qwi.DefaultPanelConfig's churn regime: ~2% establishment
// deaths and births per quarter, with surviving establishments'
// employment evolving by a ±10%-scale log-normal shock realized as
// hires or separations.
type DeltaConfig struct {
	// DeathRate is the per-quarter probability an active establishment
	// closes.
	DeathRate float64
	// BirthRate sets the expected number of establishment births as a
	// fraction of the active frame.
	BirthRate float64
	// GrowthSigma is the log-normal dispersion of survivors' growth:
	// new employment = round(old · exp(N(0, σ²))), floored at 1.
	GrowthSigma float64

	// StableProb is the per-quarter probability a surviving
	// establishment's employment holds exactly flat — no hire or
	// separation event is drawn for it, so its job rows carry into the
	// next quarter verbatim. Zero (the default regime) means every
	// survivor realizes its growth shock, which makes nearly every
	// establishment above a handful of employees a touched one; BLS
	// Business Employment Dynamics gross-flow counts (expanding +
	// contracting establishments over all private establishments) put
	// the no-net-change share at roughly three quarters in a typical
	// quarter, so calibrated runs set this to 0.75. When zero, no draw
	// is made at all, keeping the generator's random bitstream — and
	// every delta it has ever produced — unchanged.
	StableProb float64

	// SizeBody, SizeTail and TailProb parameterize newborn
	// establishments' sizes, exactly as in the snapshot generator.
	SizeBody dist.LogNormal
	SizeTail dist.Pareto
	TailProb float64
}

// DefaultDeltaConfig returns the quarterly churn configuration used by
// the serving benchmarks and cmd/ereepub.
func DefaultDeltaConfig() DeltaConfig {
	base := DefaultConfig()
	return DeltaConfig{
		DeathRate:   0.02,
		BirthRate:   0.02,
		GrowthSigma: 0.1,
		SizeBody:    base.SizeBody,
		SizeTail:    base.SizeTail,
		TailProb:    base.TailProb,
	}
}

// CalibratedDeltaConfig returns the default churn regime with the
// stability share dialed to BLS Business Employment Dynamics reality:
// BED gross-flow counts have roughly a quarter of private
// establishments expanding or contracting in a given quarter — the
// other ~75% post no net employment change — so a quarterly delta
// touches a minority of the frame. This is the regime the
// cache-maintenance benchmarks replay; the harsher DefaultDeltaConfig
// (every survivor shocked) remains the regime of the differential
// correctness suites and the ingest benchmarks.
func CalibratedDeltaConfig() DeltaConfig {
	c := DefaultDeltaConfig()
	c.StableProb = 0.75
	return c
}

// Validate returns an error describing the first invalid field, if any.
func (c DeltaConfig) Validate() error {
	if !(c.DeathRate >= 0 && c.DeathRate < 1) {
		return fmt.Errorf("lodes: DeathRate must be in [0,1), got %v", c.DeathRate)
	}
	if !(c.BirthRate >= 0 && c.BirthRate < 1) {
		return fmt.Errorf("lodes: BirthRate must be in [0,1), got %v", c.BirthRate)
	}
	if !(c.GrowthSigma > 0) {
		return fmt.Errorf("lodes: GrowthSigma must be positive, got %v", c.GrowthSigma)
	}
	if !(c.StableProb >= 0 && c.StableProb < 1) {
		return fmt.Errorf("lodes: StableProb must be in [0,1), got %v", c.StableProb)
	}
	if !(c.TailProb >= 0 && c.TailProb <= 1) {
		return fmt.Errorf("lodes: TailProb must be in [0,1], got %v", c.TailProb)
	}
	return nil
}

// drawJob draws one worker's attributes from the sector-conditioned
// distributions, in the snapshot generator's exact draw order. It takes
// exactly jobDraws draws, one per attribute, whatever it draws: the job
// kernel's positional layout depends on it.
func drawJob(s *dist.Stream, jd *jobDist) JobRecord {
	var j JobRecord
	if s.Float64() < jd.femaleProb {
		j.Sex = 1
	}
	j.Age = ageSampler.sample(s)
	j.Race = raceSampler.sample(s)
	if s.Float64() < hispanicProb {
		j.Ethnicity = 1
	}
	j.Education = jd.education.sample(s)
	return j
}

// drawJobs draws n jobs for an establishment in the given sector.
func drawJobs(s *dist.Stream, sector, n int) []JobRecord {
	jd := &sectorJobDists[sector]
	jobs := make([]JobRecord, n)
	for i := range jobs {
		jobs[i] = drawJob(s, jd)
	}
	return jobs
}

// GenerateDelta draws one deterministic quarter of churn for the
// snapshot: every active establishment dies with probability DeathRate
// or realizes a log-normal employment shock as a hire or separation
// event, and new establishments open at BirthRate with the generator's
// place, sector, ownership and size distributions. The same snapshot,
// configuration and stream always produce the same delta.
func GenerateDelta(d *Dataset, cfg DeltaConfig, s *dist.Stream) (*Delta, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dl := &Delta{}
	churn := s.Split("delta-churn")
	growth := dist.NewLogNormal(0, cfg.GrowthSigma)
	active := 0
	for i := range d.Establishments {
		est := &d.Establishments[i]
		if est.Employment == 0 {
			continue // died in an earlier epoch
		}
		active++
		if churn.Float64() < cfg.DeathRate {
			dl.Deaths = append(dl.Deaths, est.ID)
			continue
		}
		if cfg.StableProb > 0 && churn.Float64() < cfg.StableProb {
			continue // employment holds flat this quarter
		}
		next := int(math.Round(float64(est.Employment) * growth.Sample(churn)))
		if next < 1 {
			next = 1 // survivors retain at least one employee
		}
		switch {
		case next > est.Employment:
			dl.Hires = append(dl.Hires, Hire{
				Est:  est.ID,
				Jobs: drawJobs(churn, est.Industry, next-est.Employment),
			})
		case next < est.Employment:
			dl.Separations = append(dl.Separations, Separation{
				Est: est.ID, Count: est.Employment - next,
			})
		}
	}

	births := s.Split("delta-births")
	placeWeights := make([]float64, d.NumPlaces())
	for i, p := range d.Places {
		placeWeights[i] = math.Sqrt(float64(p.Population)) + 2
	}
	placePicker := newCatSampler(placeWeights)
	sizeDist := dist.NewSkewedSize(cfg.SizeBody, cfg.SizeTail, cfg.TailProb)
	for i := 0; i < active; i++ {
		if births.Float64() >= cfg.BirthRate {
			continue
		}
		place := placePicker.sample(births)
		sector := sectorSampler.sample(births)
		own := 0
		if births.Float64() < publicOwnershipProb(sector) {
			own = 1
		}
		size := sizeDist.Sample(births)
		dl.Births = append(dl.Births, Birth{
			Place: place, Industry: sector, Ownership: own,
			Jobs: drawJobs(births, sector, size),
		})
	}
	return dl, nil
}
