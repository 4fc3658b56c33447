package checkpoint

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/model"
)

// The snapshot schema. Paths and moves are model.Move values and the
// in-flight search is one QueryData record that internal/explore fills and
// reads directly; only fingerprints stay plain [2]uint64 pairs, since
// internal/explore (which names them) imports this package.

// Section tags: the first byte of every record in a snapshot segment.
const (
	secMeta  = 1
	secMemo  = 2
	secQuery = 3
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

// Node is one retained exploration node: parent id, BFS depth and the
// connecting move.
type Node struct {
	Parent int
	Depth  int
	Move   model.Move
}

// Found is one consensus value discovered by the in-flight search, with
// the node id of its witness configuration.
type Found struct {
	Value string
	ID    int
}

// QueryData freezes one in-flight exhaustive valency query at a BFS level
// boundary: enough to re-enter the search at that level instead of level 0.
// explore.Snapshotter.Data fills the search fields and
// explore.Options.ResumeFrom reads them back; internal/valency adds the
// query key (FP, Pids, MaxConfigs) and Found.
type QueryData struct {
	// FP and Pids key the query exactly as the valency memo does;
	// MaxConfigs is the effective cap of this particular search (probe
	// budgets shrink it below Meta.MaxConfigs).
	FP         [2]uint64
	Pids       uint64
	MaxConfigs int
	// Depth is the BFS depth of the frontier below; Count, Steps and
	// PeakFrontier are the search counters at the boundary.
	Depth        int
	Count        int
	Steps        int
	PeakFrontier int
	// Nodes is the full parent/move forest (witness paths replay from it),
	// Frontier the node ids awaiting expansion in deterministic order, and
	// Fingerprints the visited set.
	Nodes        []Node
	Frontier     []int
	Fingerprints [][2]uint64
	// Found records the values the search has already discovered.
	Found []Found
}

// Snapshot is one complete checkpoint: run identity, the valency memo, and
// optionally the in-flight query.
type Snapshot struct {
	Meta  Meta
	Memo  *MemoData
	Query *QueryData
}

// MemoVerdicts is the number of memoised verdicts the snapshot carries.
func (s *Snapshot) MemoVerdicts() int {
	if s.Memo == nil {
		return 0
	}
	return len(s.Memo.Verdicts)
}

// QueryDepth is the BFS depth of the in-flight query, -1 without one.
func (s *Snapshot) QueryDepth() int {
	if s.Query == nil {
		return -1
	}
	return s.Query.Depth
}

// encodeRecords serialises the snapshot into segment records.
func (s *Snapshot) encodeRecords() [][]byte {
	records := [][]byte{encodeMeta(&s.Meta)}
	if s.Memo != nil {
		records = append(records, encodeMemo(s.Memo))
	}
	if s.Query != nil {
		records = append(records, encodeQuery(s.Query))
	}
	return records
}

// DecodeSnapshot rebuilds a snapshot from segment records. It requires
// exactly one meta section and rejects duplicates, unknown sections and
// malformed fields as ErrCorrupt.
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
		case secQuery:
			if s.Query != nil {
				return nil, corruptf("duplicate query section")
			}
			q, err := decodeQuery(body)
			if err != nil {
				return nil, err
			}
			s.Query = q
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

func encodeQuery(q *QueryData) []byte {
	e := &enc{buf: []byte{secQuery}}
	e.uint(q.FP[0])
	e.uint(q.FP[1])
	e.uint(q.Pids)
	e.int(q.MaxConfigs)
	e.int(q.Depth)
	e.int(q.Count)
	e.int(q.Steps)
	e.int(q.PeakFrontier)
	e.int(len(q.Nodes))
	for _, n := range q.Nodes {
		e.int(n.Parent)
		e.int(n.Depth)
		encodeMove(e, n.Move)
	}
	e.int(len(q.Frontier))
	for _, id := range q.Frontier {
		e.int(id)
	}
	e.int(len(q.Fingerprints))
	for _, fp := range q.Fingerprints {
		e.uint(fp[0])
		e.uint(fp[1])
	}
	e.int(len(q.Found))
	for _, f := range q.Found {
		e.str(f.Value)
		e.int(f.ID)
	}
	return e.buf
}

func decodeQuery(body []byte) (*QueryData, error) {
	d := &dec{data: body}
	q := &QueryData{
		FP:           [2]uint64{d.uint("query fp0"), d.uint("query fp1")},
		Pids:         d.uint("query pids"),
		MaxConfigs:   d.intn("query max configs", maxCount),
		Depth:        d.intn("query depth", maxCount),
		Count:        d.intn("query count", maxCount),
		Steps:        d.intn("query steps", 1<<62),
		PeakFrontier: d.intn("query peak frontier", maxCount),
	}
	nn := d.intn("query node count", maxCount)
	for i := 0; i < nn && d.err == nil; i++ {
		q.Nodes = append(q.Nodes, Node{
			Parent: d.intn("node parent", maxCount),
			Depth:  d.intn("node depth", maxCount),
			Move:   decodeMove(d),
		})
	}
	nf := d.intn("query frontier count", maxCount)
	for i := 0; i < nf && d.err == nil; i++ {
		q.Frontier = append(q.Frontier, d.intn("frontier id", maxCount))
	}
	nfp := d.intn("query fingerprint count", maxCount)
	for i := 0; i < nfp && d.err == nil; i++ {
		q.Fingerprints = append(q.Fingerprints, [2]uint64{d.uint("fp0"), d.uint("fp1")})
	}
	nfound := d.intn("query found count", maxValueList)
	for i := 0; i < nfound && d.err == nil; i++ {
		q.Found = append(q.Found, Found{Value: d.str("found value", maxStrLen), ID: d.intn("found id", maxCount)})
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	// Internal consistency: frontier ids and found ids must reference
	// nodes, and node parents must precede their children.
	for i, n := range q.Nodes {
		if n.Parent >= len(q.Nodes) || (i > 0 && n.Parent >= i) {
			return nil, corruptf("node %d has out-of-order parent %d", i, n.Parent)
		}
	}
	for _, id := range q.Frontier {
		if id >= len(q.Nodes) {
			return nil, corruptf("frontier id %d beyond %d nodes", id, len(q.Nodes))
		}
	}
	for _, f := range q.Found {
		if f.ID >= len(q.Nodes) {
			return nil, corruptf("found id %d beyond %d nodes", f.ID, len(q.Nodes))
		}
	}
	return q, nil
}
