package checkpoint

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/model"
)

// The snapshot schema. Paths and moves are model.Move values; fingerprints
// stay plain [2]uint64 pairs, since this package sits below
// internal/explore, which names them.

// Section tags: the first byte of every record in a snapshot segment.
// Tag 3 held an in-flight BFS query in an earlier format; snapshots are
// taken only between queries, and a file holding one is refused, not
// misread.
const (
	secMeta         = 1
	secMemo         = 2
	secRetiredQuery = 3
)

// Decoding bounds: a corrupt count decodes to at most these before being
// rejected, so corruption cannot force huge allocations. They sit far above
// anything a real run produces.
const (
	maxStrLen    = 1 << 24
	maxCount     = 1 << 31
	maxPathLen   = 1 << 26
	maxValueList = 1 << 8
)

// ErrStaleSnapshot is returned (wrapped) by Meta.Check when a snapshot
// belongs to a different run than the live one.
var ErrStaleSnapshot = errors.New("checkpoint: snapshot belongs to a different run")

// Meta identifies a snapshot and the run it belongs to. Resume refuses a
// snapshot whose Protocol, N, MaxConfigs or FPVersion disagree with the
// live run (Check): fingerprints only mean the same canonical keys under
// identical exploration options and hash function.
type Meta struct {
	// Protocol and N identify the construction.
	Protocol string
	N        int
	// MaxConfigs is the per-query exploration cap of the run (0 = engine
	// default); memo fingerprints are only portable between runs with the
	// same cap.
	MaxConfigs int
	// Stage is the adversary proof stage current at save time (the lemma
	// the resumed run re-enters live once the memo fast-forward runs dry).
	Stage string
	// Seq increases by one per snapshot of a run; resume continues it.
	Seq uint64
	// WrittenUnixNano is the save wall-clock time.
	WrittenUnixNano int64
	// FPVersion is explore.FingerprintVersion at save time. Fingerprints
	// from a different hash function mean nothing to this run, so resume
	// refuses a mismatch. (Snapshots predating this field fail to decode
	// at all — the appended field makes them ErrCorrupt — which is the
	// intended migration: hash v1 files cannot be resumed under v2.)
	FPVersion int
}

// Check reports whether a snapshot with meta m can resume the live run: nil
// when it can, otherwise an error wrapping ErrStaleSnapshot that names every
// identifying field that differs.
func (m Meta) Check(live Meta) error {
	var diffs []string
	if m.Protocol != live.Protocol {
		diffs = append(diffs, fmt.Sprintf("protocol %q, run %q", m.Protocol, live.Protocol))
	}
	if m.N != live.N {
		diffs = append(diffs, fmt.Sprintf("n=%d, run n=%d", m.N, live.N))
	}
	if m.MaxConfigs != live.MaxConfigs {
		diffs = append(diffs, fmt.Sprintf("max-configs=%d, run max-configs=%d", m.MaxConfigs, live.MaxConfigs))
	}
	if m.FPVersion != live.FPVersion {
		diffs = append(diffs, fmt.Sprintf("fingerprint v%d, run v%d", m.FPVersion, live.FPVersion))
	}
	if diffs == nil {
		return nil
	}
	return fmt.Errorf("%w: snapshot %d has %s", ErrStaleSnapshot, m.Seq, strings.Join(diffs, "; "))
}

// VerdictRec is one memoised valency verdict: the decidable value set of
// one (configuration fingerprint, process set) query, with one witness path
// per decidable value.
type VerdictRec struct {
	FP      [2]uint64
	Pids    uint64
	Values  []string
	Witness [][]model.Move // aligned with Values
}

// SoloRec is one memoised solo-termination answer: either a deciding path
// and value, or a definite refutation (Err non-empty).
type SoloRec struct {
	FP   [2]uint64
	Pid  int
	Err  string
	Val  string
	Path []model.Move
}

// MemoData is the exported valency memo.
type MemoData struct {
	Verdicts []VerdictRec
	Solo     []SoloRec
}

// Snapshot is one complete checkpoint, taken between valency queries: run
// identity and the valency memo.
type Snapshot struct {
	Meta Meta
	Memo *MemoData
}

// MemoVerdicts is the number of memoised verdicts the snapshot carries.
func (s *Snapshot) MemoVerdicts() int {
	if s.Memo == nil {
		return 0
	}
	return len(s.Memo.Verdicts)
}

// encodeRecords serialises the snapshot into segment records.
func (s *Snapshot) encodeRecords() [][]byte {
	records := [][]byte{encodeMeta(&s.Meta)}
	if s.Memo != nil {
		records = append(records, encodeMemo(s.Memo))
	}
	return records
}

// DecodeSnapshot rebuilds a snapshot from segment records. It requires
// exactly one meta section and rejects duplicates, unknown sections, the
// retired in-flight query section and malformed fields as ErrCorrupt.
func DecodeSnapshot(records [][]byte) (*Snapshot, error) {
	s := &Snapshot{}
	seenMeta := false
	for i, rec := range records {
		if len(rec) == 0 {
			return nil, corruptf("record %d is empty", i)
		}
		tag, body := rec[0], rec[1:]
		switch tag {
		case secMeta:
			if seenMeta {
				return nil, corruptf("duplicate meta section")
			}
			meta, err := decodeMeta(body)
			if err != nil {
				return nil, err
			}
			s.Meta, seenMeta = *meta, true
		case secMemo:
			if s.Memo != nil {
				return nil, corruptf("duplicate memo section")
			}
			memo, err := decodeMemo(body)
			if err != nil {
				return nil, err
			}
			s.Memo = memo
		case secRetiredQuery:
			return nil, corruptf("record %d is an in-flight query section, no longer resumed", i)
		default:
			return nil, corruptf("record %d has unknown section tag %d", i, tag)
		}
	}
	if !seenMeta {
		return nil, corruptf("snapshot has no meta section")
	}
	return s, nil
}

func encodeMeta(m *Meta) []byte {
	e := &enc{buf: []byte{secMeta}}
	e.str(m.Protocol)
	e.int(m.N)
	e.int(m.MaxConfigs)
	e.str(m.Stage)
	e.uint(m.Seq)
	e.uint(uint64(m.WrittenUnixNano))
	e.int(m.FPVersion)
	return e.buf
}

func decodeMeta(body []byte) (*Meta, error) {
	d := &dec{data: body}
	m := &Meta{
		Protocol:   d.str("meta protocol", maxStrLen),
		N:          d.intn("meta n", maxCount),
		MaxConfigs: d.intn("meta max configs", maxCount),
		Stage:      d.str("meta stage", maxStrLen),
		Seq:        d.uint("meta seq"),
	}
	m.WrittenUnixNano = int64(d.uint("meta written"))
	m.FPVersion = d.intn("meta fp version", maxCount)
	if err := d.done(); err != nil {
		return nil, err
	}
	return m, nil
}

func encodeMove(e *enc, m model.Move) {
	e.int(m.Pid)
	e.str(string(m.Coin))
}

func decodeMove(d *dec) model.Move {
	return model.Move{Pid: d.intn("move pid", maxCount), Coin: model.Value(d.str("move coin", maxStrLen))}
}

func encodePath(e *enc, p []model.Move) {
	e.int(len(p))
	for _, m := range p {
		encodeMove(e, m)
	}
}

func decodePath(d *dec) []model.Move {
	n := d.intn("path length", maxPathLen)
	if d.err != nil || n == 0 {
		// nil for the empty path, so encode/decode roundtrips preserve
		// deep equality (the encoding cannot tell nil from empty).
		return nil
	}
	p := make([]model.Move, 0, min(n, 1024))
	for i := 0; i < n && d.err == nil; i++ {
		p = append(p, decodeMove(d))
	}
	return p
}

func encodeMemo(m *MemoData) []byte {
	e := &enc{buf: []byte{secMemo}}
	e.int(len(m.Verdicts))
	for _, v := range m.Verdicts {
		e.uint(v.FP[0])
		e.uint(v.FP[1])
		e.uint(v.Pids)
		e.int(len(v.Values))
		for i, val := range v.Values {
			e.str(val)
			encodePath(e, v.Witness[i])
		}
	}
	e.int(len(m.Solo))
	for _, s := range m.Solo {
		e.uint(s.FP[0])
		e.uint(s.FP[1])
		e.int(s.Pid)
		e.str(s.Err)
		e.str(s.Val)
		encodePath(e, s.Path)
	}
	return e.buf
}

func decodeMemo(body []byte) (*MemoData, error) {
	d := &dec{data: body}
	m := &MemoData{}
	nv := d.intn("memo verdict count", maxCount)
	for i := 0; i < nv && d.err == nil; i++ {
		v := VerdictRec{FP: [2]uint64{d.uint("verdict fp0"), d.uint("verdict fp1")}, Pids: d.uint("verdict pids")}
		nvals := d.intn("verdict value count", maxValueList)
		for j := 0; j < nvals && d.err == nil; j++ {
			v.Values = append(v.Values, d.str("verdict value", maxStrLen))
			v.Witness = append(v.Witness, decodePath(d))
		}
		m.Verdicts = append(m.Verdicts, v)
	}
	ns := d.intn("memo solo count", maxCount)
	for i := 0; i < ns && d.err == nil; i++ {
		m.Solo = append(m.Solo, SoloRec{
			FP:   [2]uint64{d.uint("solo fp0"), d.uint("solo fp1")},
			Pid:  d.intn("solo pid", maxCount),
			Err:  d.str("solo err", maxStrLen),
			Val:  d.str("solo val", maxStrLen),
			Path: decodePath(d),
		})
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return m, nil
}
