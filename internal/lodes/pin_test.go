package lodes

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/dist"
)

// datasetSHA256 hashes a dataset's generated bytes: every WorkerFull
// column in schema order, the entity column, the establishment frame and
// the places, each value little-endian at a fixed width.
func datasetSHA256(d *Dataset) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64, width int) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:width])
	}
	for a := 0; a < d.Schema().NumAttrs(); a++ {
		for _, c := range d.WorkerFull.Column(a) {
			put(uint64(c), 2)
		}
	}
	for _, e := range d.WorkerFull.Entities() {
		put(uint64(uint32(e)), 4)
	}
	for _, e := range d.Establishments {
		for _, v := range []int{int(e.ID), e.Place, e.Industry, e.Ownership, e.Employment} {
			put(uint64(v), 8)
		}
	}
	for _, p := range d.Places {
		h.Write([]byte(p.Name))
		put(uint64(p.Population), 8)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedDatasetPinned pins the generator's output byte for byte:
// the test and default configurations at seed 1, each as generated and
// after an 8-quarter calibrated delta chain (delta seeds 1000…1007).
// The hashes were recorded with the single-threaded generator, and
// every GOMAXPROCS must reproduce them: the job relation is a positional
// function of the workers stream, not of how it is split across cores.
func TestGeneratedDatasetPinned(t *testing.T) {
	pins := []struct {
		name          string
		cfg           Config
		base, chained string
	}{
		{"test", TestConfig(),
			"fa8246b6fc903a0e5be27003de0232bbc7d99ff787c0b8a5d909c9267823fa3c",
			"f82ef3992916960b54774d23d45ca5b2581fd62292a680f4e6748b46aee4e7be"},
		{"default", DefaultConfig(),
			"b830405e3420165f778fafd33520236b9f16cde0f27dcfa52678fb378c21f2d5",
			"df47158269a5a38258780d5aa4440587669dd409830e3ece2e719d8b14b6d2c4"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, p := range pins {
			d := MustGenerate(p.cfg, dist.NewStreamFromSeed(1))
			if got := datasetSHA256(d); got != p.base {
				t.Errorf("GOMAXPROCS=%d %s: generated dataset hashes to %s, pinned %s", procs, p.name, got, p.base)
			}
			for q := 0; q < 8; q++ {
				dl, err := GenerateDelta(d, CalibratedDeltaConfig(), dist.NewStreamFromSeed(int64(1000+q)))
				if err != nil {
					t.Fatal(err)
				}
				if d, err = d.ApplyDelta(dl); err != nil {
					t.Fatal(err)
				}
			}
			if got := datasetSHA256(d); got != p.chained {
				t.Errorf("GOMAXPROCS=%d %s: dataset after 8 quarters hashes to %s, pinned %s", procs, p.name, got, p.chained)
			}
		}
	}
}
