package consensus

import (
	"strconv"
	"strings"

	"repro/internal/model"
)

// DiskRace's canonicaliser (model.Canon) quotients away the absolute
// magnitude of ballot rounds, shrinking the protocol's unbounded reachable
// space to a finite (though still large) quotient for exhaustive search.
//
// The abstraction: collect every round number occurring anywhere in the
// configuration (register blocks and local states) and renumber them
// order-preservingly, anchoring the smallest positive round at 1 and capping
// gaps at 2. Two configurations with the same canonical key are bisimilar
// because every rule of DiskRace uses rounds only through
//
//   - the test "is this the null ballot" (round 0, preserved exactly),
//   - lexicographic comparison of (round, pid) pairs (order is preserved,
//     and pids are untouched), and
//   - the successor round max+1 taken of a round present in the
//     configuration (a gap of 1 — "r+1 collides with an existing round" —
//     is preserved exactly, and any gap ≥ 2 — "r+1 falls strictly below the
//     next round" — maps to a gap of exactly 2, which behaves identically
//     under a single successor).
//
// No rule mentions an absolute round constant other than 0 (initial ballots
// are minted once, before any steps), so anchoring at 1 is sound.
// TestDiskRaceCanonicalBisimulation property-checks this argument by
// shifting rounds of reachable configurations and running the shifted and
// unshifted copies in lockstep.
//
// A state's template is its key without the process count, with "K!" for
// an aborting scan's maximum round instead of "K.true", and with every
// positive round cut; a register's template is its block re-encoded with
// its positive rounds cut. Round 0 stays in the literal bytes.
// TestCanonicalKeyToMatchesCanonicalKey holds the rendered keys to the
// string reference CanonicalKey.

var _ model.Canon = DiskRace{}

// StateTemplate implements model.Canon.
func (DiskRace) StateTemplate(t *model.Template, st model.State) bool {
	s, ok := st.(diskState)
	if !ok {
		return false
	}
	_ = t.WriteByte('D')
	t.WriteInt(s.pid)
	_ = t.WriteByte('|')
	_, _ = t.WriteString(string(s.input))
	_ = t.WriteByte('|')
	ballotTemplate(t, s.ballot)
	_ = t.WriteByte('|')
	t.WriteInt(int(s.phase))
	_ = t.WriteByte('|')
	t.WriteInt(s.idx)
	_ = t.WriteByte('|')
	ballotTemplate(t, s.ownBal)
	_ = t.WriteByte('|')
	_, _ = t.WriteString(string(s.ownInp))
	_ = t.WriteByte('|')
	_, _ = t.WriteString(string(s.proposal))
	_ = t.WriteByte('|')
	roundTemplate(t, s.maxK)
	if s.aborting {
		_ = t.WriteByte('!')
	}
	_ = t.WriteByte('|')
	ballotTemplate(t, s.maxBal)
	_ = t.WriteByte('|')
	_, _ = t.WriteString(string(s.balInp))
	return true
}

// ValueTemplate implements model.Canon. The empty register is the zero
// block; anything that is not a block refuses.
func (DiskRace) ValueTemplate(t *model.Template, v model.Value) bool {
	b, ok := parseBlock(v)
	if !ok {
		return false
	}
	ballotTemplate(t, b.Mbal)
	_ = t.WriteByte(';')
	ballotTemplate(t, b.Bal)
	_ = t.WriteByte(';')
	_, _ = t.WriteString(string(b.Inp))
	return true
}

// Renumber implements model.Canon: the smallest round becomes 1, and each
// later round sits min(gap, 2) above its predecessor. The templates cut
// only positive rounds; round 0, the null ballot, stays literal.
func (DiskRace) Renumber(rounds, to []int) {
	prev, mapped := 0, 0
	for i, k := range rounds {
		gap := k - prev
		switch {
		case prev == 0:
			// Anchor: no rule takes the successor of round 0, so the
			// distance of the smallest positive round from 0 is
			// unobservable.
			gap = 1
		case gap > 2:
			// A single successor cannot cross a gap of 2, so larger
			// gaps are indistinguishable from 2.
			gap = 2
		}
		mapped += gap
		to[i] = mapped
		prev = k
	}
}

// roundTemplate cuts a positive round and writes round 0 literally.
func roundTemplate(t *model.Template, k int) {
	if k == 0 {
		_ = t.WriteByte('0')
		return
	}
	t.Round(k)
}

// ballotTemplate writes a ballot with its round cut.
func ballotTemplate(t *model.Template, b Ballot) {
	roundTemplate(t, b.K)
	_ = t.WriteByte('.')
	t.WriteInt(b.Pid)
}

// parseBlock decodes a register value written by diskBlock.encode; the
// empty register is the zero block. ok is false for anything else.
func parseBlock(v model.Value) (diskBlock, bool) {
	if v == model.Bottom {
		return diskBlock{}, true
	}
	// Split by hand instead of strings.SplitN: decoding runs once per
	// register value a search meets, and the slice header allocation was
	// measurable in exhaustive-search profiles.
	s := string(v)
	i := strings.IndexByte(s, ';')
	if i < 0 {
		return diskBlock{}, false
	}
	j := strings.IndexByte(s[i+1:], ';')
	if j < 0 {
		return diskBlock{}, false
	}
	j += i + 1
	mbal, ok1 := parseBallot(s[:i])
	bal, ok2 := parseBallot(s[i+1 : j])
	return diskBlock{Mbal: mbal, Bal: bal, Inp: model.Value(s[j+1:])}, ok1 && ok2
}

// parseBallot decodes Ballot.String's "k.pid" with non-negative fields.
func parseBallot(s string) (Ballot, bool) {
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		return Ballot{}, false
	}
	k, err1 := strconv.Atoi(s[:dot])
	pid, err2 := strconv.Atoi(s[dot+1:])
	return Ballot{K: k, Pid: pid}, err1 == nil && err2 == nil && k >= 0 && pid >= 0
}
