package server

// Tests for the divergence digest: the multiset hash applyRecord keeps
// current (stateSum) equals the from-scratch sum (sumOf) after every
// record, it moves with every field of every state element, a log
// altered after its digests were written fails recovery at the next
// digest record, and a state directory written before the multiset
// hash (kind-7 digests) still recovers bit-identically.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/privacy"
)

// copyStateDir copies a flat state directory into a fresh temp
// directory: recovery compacts the directory it opens, so a fixture is
// only ever opened through a copy.
func copyStateDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// logFile is the one WAL log of a state directory: its 8-byte file
// magic and its records, parsed from the frames internal/wal writes
// (u32 length | u32 CRC32-C | payload).
type logFile struct {
	path  string
	magic []byte
	recs  [][]byte
}

func readLog(t *testing.T, dir string) logFile {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("state dir %s: want one log, found %v (%v)", dir, paths, err)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	lf := logFile{path: paths[0], magic: raw[:8]}
	for off := 8; off < len(raw); {
		n := int(binary.BigEndian.Uint32(raw[off:]))
		lf.recs = append(lf.recs, raw[off+8:off+8+n])
		off += 8 + n
	}
	return lf
}

// write re-frames every record with a valid checksum, so recovery
// reads an altered record as intact.
func (lf logFile) write(t *testing.T) {
	t.Helper()
	out := append([]byte(nil), lf.magic...)
	for _, rec := range lf.recs {
		out = binary.BigEndian.AppendUint32(out, uint32(len(rec)))
		out = binary.BigEndian.AppendUint32(out, crc32.Checksum(rec, crc32.MakeTable(crc32.Castagnoli)))
		out = append(out, rec...)
	}
	if err := os.WriteFile(lf.path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// alterFirstSpend flips mantissa bit 48 of the ε of the log's first
// spend record (an ε of 0.5 becomes 0.53125), which still decodes and
// applies, and returns the index of the first digest record of kind
// after it. A low bit would not do: later charges can round it away, so
// the state at the digest would be the one the digest was computed over.
func (lf logFile) alterFirstSpend(t *testing.T, kind byte) int {
	t.Helper()
	for i, rec := range lf.recs {
		if rec[0] != recSpend {
			continue
		}
		lf.recs[i] = raiseSpendEps(rec)
		for j := i + 1; j < len(lf.recs); j++ {
			if lf.recs[j][0] == kind {
				return j
			}
		}
		t.Fatalf("no kind-%d digest record after spend record %d", kind, i)
	}
	t.Fatal("log holds no spend record")
	return 0
}

// raiseSpendEps returns a copy of spend record rec with mantissa bit 48
// of its ε flipped.
func raiseSpendEps(rec []byte) []byte {
	nameLen := int(binary.BigEndian.Uint32(rec[1:]))
	rec = append([]byte(nil), rec...)
	rec[1+4+nameLen+1] ^= 1
	return rec
}

// TestRecoveryDetectsAlteredSpend: a spend record altered after the
// digest over it was staged, and re-framed with a valid checksum, is
// applied without complaint — and recovery then fails at the next
// digest record with the mismatch error.
func TestRecoveryDetectsAlteredSpend(t *testing.T) {
	dir := t.TempDir()
	_, hs := openDurable(t, dir, 1, Options{NoiseSeed: 7}, nil)
	for seq := 0; seq < 12; seq++ {
		body := fmt.Sprintf(`{"attrs":["industry"],"mechanism":"smooth-gamma","alpha":0.1,"eps":0.5,"seq":%d}`, seq)
		if status, raw := do(t, hs, "POST", "/v1/release", keyAlpha, body); status != http.StatusOK {
			t.Fatalf("release %d = %d: %s", seq, status, raw)
		}
	}
	hs.Close() // crash: the log is the only truth

	intact, err := openState(copyStateDir(t, dir))
	if err != nil {
		t.Fatalf("the unaltered log does not recover: %v", err)
	}
	intact.store.Close()

	lf := readLog(t, dir)
	at := lf.alterFirstSpend(t, recStateSum)
	lf.write(t)
	p, err := openState(dir)
	if err == nil {
		p.store.Close()
		t.Fatal("recovery accepted a log whose spend record was altered after its digest")
	}
	if want := fmt.Sprintf("state log record %d: state digest mismatch", at); !strings.Contains(err.Error(), want) {
		t.Fatalf("recovery error = %v, want it to contain %q", err, want)
	}
}

// digestCoverageState is a small state with two of everything: quarter
// seeds, tenants, ledger epochs and replay-ring entries (three, so both
// an end and a middle entry can swap).
func digestCoverageState() *persistentState {
	st := newPersistentState()
	st.QuarterSeeds = []int64{101, 202, 303}
	st.Term, st.Fenced = 3, false
	for i, name := range []string{"alpha", "beta"} {
		f := float64(i + 1)
		st.Tenants[name] = &tenantState{
			Def: privacy.WeakEREE, Alpha: 0.1 * f, BudgetEps: 10 * f, BudgetDelta: 0.5,
			Ledger: privacy.Ledger{SpentEps: 1.5 * f, SpentDelta: 1e-9 * f, Releases: 3 + i, Epochs: []privacy.EpochSpend{
				{Epoch: 0, Eps: 0.5 * f, Delta: 1e-9 * f, Releases: 1},
				{Epoch: 1, Eps: 0.25 * f, Delta: 0, Releases: 1 + i},
				{Epoch: 2, Eps: 0.75 * f, Delta: 0, Releases: 1},
			}},
			NextSeq: 9 + int64(i),
			Recent: []replayKey{
				{Seq: 4, Digest: "d4" + name, Epoch: 0},
				{Seq: 5, Digest: "d5" + name, Epoch: 1},
				{Seq: 6, Digest: "d6" + name, Epoch: 2},
			},
		}
	}
	return st
}

// cloneState deep-copies a state through its snapshot encoding.
func cloneState(t *testing.T, st *persistentState) *persistentState {
	t.Helper()
	c, err := decodeSnapshot(encodeSnapshot(st))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStateDigestCoversEveryField: the from-scratch digest moves when
// any one field of any element changes — each float by one ulp — and
// when two quarter seeds, two ledger epochs or two ring entries swap
// places; it stays put when only the term or the fenced flag changes.
func TestStateDigestCoversEveryField(t *testing.T) {
	base := digestCoverageState()
	want := sumOf(base)
	ulp := func(f *float64) { *f = math.Nextafter(*f, math.Inf(1)) }
	type mutation struct {
		name string
		edit func(st *persistentState)
	}
	var moves []mutation
	add := func(name string, edit func(st *persistentState)) { moves = append(moves, mutation{name, edit}) }
	for q := range base.QuarterSeeds {
		add(fmt.Sprintf("quarter %d seed", q), func(st *persistentState) { st.QuarterSeeds[q]++ })
	}
	add("quarters 0 and 1 swap", func(st *persistentState) {
		st.QuarterSeeds[0], st.QuarterSeeds[1] = st.QuarterSeeds[1], st.QuarterSeeds[0]
	})
	for _, name := range []string{"alpha", "beta"} {
		tn := func(st *persistentState) *tenantState { return st.Tenants[name] }
		add(name+" renamed", func(st *persistentState) {
			st.Tenants[name+"2"] = st.Tenants[name]
			delete(st.Tenants, name)
		})
		add(name+" Def", func(st *persistentState) { tn(st).Def = privacy.StrongEREE })
		add(name+" Alpha", func(st *persistentState) { ulp(&tn(st).Alpha) })
		add(name+" BudgetEps", func(st *persistentState) { ulp(&tn(st).BudgetEps) })
		add(name+" BudgetDelta", func(st *persistentState) { ulp(&tn(st).BudgetDelta) })
		add(name+" SpentEps", func(st *persistentState) { ulp(&tn(st).Ledger.SpentEps) })
		add(name+" SpentDelta", func(st *persistentState) { ulp(&tn(st).Ledger.SpentDelta) })
		add(name+" Releases", func(st *persistentState) { tn(st).Ledger.Releases++ })
		add(name+" NextSeq", func(st *persistentState) { tn(st).NextSeq++ })
		for e := range base.Tenants[name].Ledger.Epochs {
			ep := func(st *persistentState) *privacy.EpochSpend { return &tn(st).Ledger.Epochs[e] }
			add(fmt.Sprintf("%s epoch %d Epoch", name, e), func(st *persistentState) { ep(st).Epoch += 7 })
			add(fmt.Sprintf("%s epoch %d Eps", name, e), func(st *persistentState) { ulp(&ep(st).Eps) })
			add(fmt.Sprintf("%s epoch %d Delta", name, e), func(st *persistentState) { ulp(&ep(st).Delta) })
			add(fmt.Sprintf("%s epoch %d Releases", name, e), func(st *persistentState) { ep(st).Releases++ })
		}
		add(name+" epochs 0 and 1 swap", func(st *persistentState) {
			es := tn(st).Ledger.Epochs
			es[0], es[1] = es[1], es[0]
		})
		for k := range base.Tenants[name].Recent {
			rk := func(st *persistentState) *replayKey { return &tn(st).Recent[k] }
			add(fmt.Sprintf("%s ring %d Seq", name, k), func(st *persistentState) { rk(st).Seq++ })
			add(fmt.Sprintf("%s ring %d Digest", name, k), func(st *persistentState) { rk(st).Digest += "x" })
			add(fmt.Sprintf("%s ring %d Epoch", name, k), func(st *persistentState) { rk(st).Epoch++ })
		}
		for _, sw := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
			add(fmt.Sprintf("%s ring %d and %d swap", name, sw[0], sw[1]), func(st *persistentState) {
				r := tn(st).Recent
				r[sw[0]], r[sw[1]] = r[sw[1]], r[sw[0]]
			})
		}
	}
	for _, m := range moves {
		st := cloneState(t, base)
		m.edit(st)
		if sumOf(st) == want {
			t.Errorf("%s: the digest did not change", m.name)
		}
	}

	st := cloneState(t, base)
	st.Term++
	st.Fenced = true
	if sumOf(st) != want {
		t.Error("the term and the fenced flag moved the digest; they must stay outside it")
	}
}

// parentWant is what commit 5a52540 recovered from its fixture state
// directory (testdata/parent-5a52540/want.json).
type parentWant struct {
	Stats   map[string]string `json:"stats"`
	Tenants map[string]struct {
		NextSeq int64          `json:"next_seq"`
		Ledger  privacy.Ledger `json:"ledger"`
		Recent  []replayKey    `json:"recent"`
	} `json:"tenants"`
	QuarterSeeds      []int64 `json:"quarter_seeds"`
	Term              uint64  `json:"term"`
	RecoveredSnapshot string  `json:"recovered_snapshot_sha256"`
}

// TestParentStateDirRecovers: a state directory written before the
// multiset digest, whose log carries kind-7 digests (SHA-256 over the
// canonical state body), recovers bit-identically, and a copy with one
// spend byte changed fails at its next kind-7 record.
//
// testdata/parent-5a52540/state was written by this package at commit
// 5a52540. A durable server over testDataset(1), with options
// NoiseSeed 7, AdminKey keyAdmin and DeltaSeed 100, and tenants alpha
// and beta (ε budget 100, δ 0.5), served three releases and was
// abandoned; the next boot compacted them into a version-2 snapshot,
// then served two tagged releases, a batch, a cell, one release
// without a seq and an untagged accountant spend (on beta), one admin
// advance and eight more releases on both tenants, and was abandoned
// too. Its log holds 19 records: 14 spends, the quarter's dataset
// advance and two tenant advances, and two kind-7 digests. want.json
// is what that commit recovered from a copy of it: both tenants'
// /v1/stats bodies, their NextSeq, ledger and replay ring, the quarter
// seeds, the term, and the SHA-256 of the snapshot its boot compaction
// wrote.
func TestParentStateDirRecovers(t *testing.T) {
	const fixture = "testdata/parent-5a52540"
	raw, err := os.ReadFile(filepath.Join(fixture, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want parentWant
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	tenants := []tenantSpec{
		{name: "alpha", key: keyAlpha, eps: 100, delta: 0.5},
		{name: "beta", key: keyBeta, eps: 100, delta: 0.5},
	}
	opts := Options{NoiseSeed: 7, AdminKey: keyAdmin, DeltaSeed: 100}
	state := filepath.Join(fixture, "state")

	digests := 0
	for _, rec := range readLog(t, state).recs {
		if rec[0] == recDigest {
			digests++
		}
	}
	if digests < 2 {
		t.Fatalf("fixture log holds %d kind-7 digest records, want at least 2", digests)
	}

	srv, hs := openDurable(t, copyStateDir(t, state), 1, opts, tenants)
	for name, key := range map[string]string{"alpha": keyAlpha, "beta": keyBeta} {
		status, body := do(t, hs, "GET", "/v1/stats", key, "")
		if status != http.StatusOK || string(body) != want.Stats[name] {
			t.Errorf("%s /v1/stats = %d\n  got:  %s\n  want: %s", name, status, body, want.Stats[name])
		}
		ts, w := srv.persist.state.Tenants[name], want.Tenants[name]
		if ts.NextSeq != w.NextSeq || !reflect.DeepEqual(ts.Ledger, w.Ledger) || !reflect.DeepEqual(ts.Recent, w.Recent) {
			t.Errorf("%s recovered NextSeq %d, ledger %+v, ring %+v\n  want %d, %+v, %+v",
				name, ts.NextSeq, ts.Ledger, ts.Recent, w.NextSeq, w.Ledger, w.Recent)
		}
	}
	st := srv.persist.state
	if !reflect.DeepEqual(st.QuarterSeeds, want.QuarterSeeds) || st.Term != want.Term {
		t.Errorf("recovered quarter seeds %v at term %d, want %v at %d", st.QuarterSeeds, st.Term, want.QuarterSeeds, want.Term)
	}
	if st.sum != sumOf(st) {
		t.Error("the recovered state's digest differs from its from-scratch sum")
	}
	_, snap, err := srv.persist.store.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(snap); hex.EncodeToString(sum[:]) != want.RecoveredSnapshot {
		t.Errorf("boot compaction wrote a snapshot with SHA-256 %x, want %s", sum, want.RecoveredSnapshot)
	}

	altered := copyStateDir(t, state)
	lf := readLog(t, altered)
	at := lf.alterFirstSpend(t, recDigest)
	lf.write(t)
	p, err := openState(altered)
	if err == nil {
		p.store.Close()
		t.Fatal("recovery accepted a parent-written log with an altered spend record")
	}
	if wantErr := fmt.Sprintf("state log record %d: state digest mismatch", at); !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("recovery error = %v, want it to contain %q", err, wantErr)
	}
}

// FuzzStateDigest drives record histories decoded from the input
// through applyRecord and requires, after every record — applied or
// refused — that the incremental digest equal the from-scratch one,
// and, at the end, that an encodeSnapshot/decodeSnapshot round trip
// give back that digest. Each op is two bytes, an op code and an
// argument: registrations and re-registrations (one of them under a
// changed definition, which is refused), tagged and untagged spends
// (one op is a run of up to 5,100 tagged spends, so a tenant's replay
// ring evicts), tenant and dataset advances (valid or not), terms and
// fences (regressions refused), and digest records carrying the
// current sum (accepted) or a perturbed one (refused).
func FuzzStateDigest(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 2, 3, 3, 0, 4, 0, 6, 2, 7, 3, 8, 0})
	f.Add([]byte{0, 0, 0, 1, 5, 0, 5, 1, 2, 4, 4, 3, 9, 0, 9, 1, 1, 129, 6, 1, 7, 5, 8, 6, 7, 4, 0, 2, 3, 2})
	f.Add([]byte{0, 0, 4, 207, 5, 0, 2, 3, 9, 0}) // 4,140 tagged spends on alpha: its ring evicts
	f.Fuzz(func(t *testing.T, ops []byte) {
		names := []string{"alpha", "beta", "gamma"}
		digest := strings.Repeat("0123456789abcdef", 4)
		st := newPersistentState()
		var seq int64
		apply := func(rec []byte) {
			t.Helper()
			err := st.applyRecord(rec)
			if st.sum != sumOf(st) {
				t.Fatalf("after record %x (err %v): incremental digest %x, from scratch %x", rec, err, st.sum.bytes(), sumOf(st).bytes())
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			name := names[int(arg)%len(names)]
			switch ops[i] % 10 {
			case 0, 1: // register, or re-register with new budgets
				def := privacy.WeakEREE
				if ops[i] == 1 && arg >= 128 {
					def = privacy.StrongEREE
				}
				apply(registerRecord(privacy.RegisterRecord{Tenant: name, Def: def, Alpha: 0.1, BudgetEps: float64(arg), BudgetDelta: 0.5}))
			case 2, 3: // one spend, tagged on op 2
				rec := privacy.SpendRecord{Tenant: name, Eps: 0.5 + float64(arg)/64, Delta: float64(arg%4) * 1e-9, Releases: 1 + int(arg%3)}
				if ops[i] == 2 {
					seq += int64(arg%5) - 1
					rec.Tag = &privacy.SpendTag{Seq: seq, Digest: digest[:arg%65], Epoch: int(arg % 3)}
				}
				apply(spendRecord(rec))
			case 4: // a run of 20·arg tagged spends
				for k := 0; k < 20*int(arg); k++ {
					seq++
					apply(spendRecord(privacy.SpendRecord{Tenant: name, Eps: 0.5, Releases: 1,
						Tag: &privacy.SpendTag{Seq: seq, Digest: digest[:k%65], Epoch: k % 2}}))
				}
			case 5: // tenant advance: to the next epoch, or a refused skip
				next := int(arg % 2)
				if ts, ok := st.Tenants[name]; ok {
					next += ts.Ledger.Epoch() + 1
				}
				apply(tenantAdvanceRecord(privacy.AdvanceRecord{Tenant: name, Epoch: next}))
			case 6: // dataset advance: the next quarter, or a refused one
				apply(datasetAdvanceRecord(len(st.QuarterSeeds)+int(arg%2), int64(arg)*7919))
			case 7:
				apply(termRecord(recTerm, uint64(arg)))
			case 8:
				apply(termRecord(recFence, uint64(arg)))
			case 9: // a digest record: the current sum, or one perturbed
				rec := st.sumRecord()
				if arg%2 == 1 {
					rec[len(rec)-1] ^= 1
				}
				if err := st.applyRecord(rec); (err != nil) != (arg%2 == 1) {
					t.Fatalf("digest record (perturbed %v) answered %v", arg%2 == 1, err)
				}
			}
		}
		back, err := decodeSnapshot(encodeSnapshot(st))
		if err != nil {
			t.Fatal(err)
		}
		if back.sum != st.sum {
			t.Fatalf("snapshot round trip: digest %x, before it %x", back.sum.bytes(), st.sum.bytes())
		}
		if !bytes.Equal(encodeSnapshot(back), encodeSnapshot(st)) {
			t.Fatal("snapshot round trip changed the state")
		}
	})
}
