package consensus

import (
	"strconv"
	"strings"

	"repro/internal/model"
)

// CanonicalKey is the string reference form of DiskRace's canonical key
// (see canonical.go for the abstraction): it renumbers the rounds of a
// decoded configuration with a sorted remap and formats the key field by
// field, independently of the template machinery the engine renders keys
// with. TestCanonicalKeyToMatchesCanonicalKey and
// TestTemplateFingerprintsMatchReference hold every rendered key to it.
func (DiskRace) CanonicalKey(c model.Config) string {
	// Collect the rounds present. A configuration of n processes holds at
	// most 4n state rounds and 2n register rounds.
	n := c.NumProcesses()
	rounds := make([]int, 0, 6*n)
	states := make([]diskState, n)
	blocks := make([]diskBlock, c.NumRegisters())
	for pid := 0; pid < n; pid++ {
		s, ok := c.State(pid).(diskState)
		if !ok {
			// Not a DiskRace configuration; fall back to exact keys.
			return c.Key()
		}
		states[pid] = s
		rounds = append(rounds, s.ballot.K, s.ownBal.K, s.maxK, s.maxBal.K)
	}
	for r := 0; r < c.NumRegisters(); r++ {
		blocks[r] = decodeBlock(c.Register(r))
		rounds = append(rounds, blocks[r].Mbal.K, blocks[r].Bal.K)
	}
	remap := buildRoundRemap(rounds)

	var b strings.Builder
	b.Grow(32 * n)
	for pid := range states {
		states[pid].writeCanonicalKey(&b, remap)
		b.WriteByte('\x1f')
	}
	b.WriteByte('\x1e')
	for r := range blocks {
		block := blocks[r]
		block.Mbal.K = remap.apply(block.Mbal.K)
		block.Bal.K = remap.apply(block.Bal.K)
		b.WriteString(string(block.encode()))
		b.WriteByte('\x1f')
	}
	return b.String()
}

// roundRemap is an order-preserving, gap-capped renumbering of rounds,
// represented as two parallel sorted slices.
type roundRemap struct {
	from []int
	to   []int
}

func (m roundRemap) apply(k int) int {
	if k == 0 {
		return 0
	}
	i := 0
	for m.from[i] < k {
		i++
	}
	return m.to[i]
}

// buildRoundRemap computes the renumbering for the given (unsorted,
// duplicate-bearing) list of rounds, sorting and deduplicating it in place.
func buildRoundRemap(rounds []int) roundRemap {
	for i := 1; i < len(rounds); i++ {
		for j := i; j > 0 && rounds[j] < rounds[j-1]; j-- {
			rounds[j], rounds[j-1] = rounds[j-1], rounds[j]
		}
	}
	from := rounds[:0]
	prev := -1
	for _, k := range rounds {
		if k != prev {
			from = append(from, k)
			prev = k
		}
	}
	if len(from) > 0 && from[0] == 0 {
		from = from[1:]
	}
	var to []int
	prevK, mapped := 0, 0
	for _, k := range from {
		gap := k - prevK
		switch {
		case prevK == 0:
			gap = 1
		case gap > 2:
			gap = 2
		}
		mapped += gap
		to = append(to, mapped)
		prevK = k
	}
	return roundRemap{from: from, to: to}
}

// writeCanonicalKey is diskState.Key with rounds renumbered and without
// the process count.
func (s diskState) writeCanonicalKey(b *strings.Builder, remap roundRemap) {
	writeBallot := func(bal Ballot) {
		b.WriteString(strconv.Itoa(remap.apply(bal.K)))
		b.WriteByte('.')
		b.WriteString(strconv.Itoa(bal.Pid))
	}
	b.WriteByte('D')
	b.WriteString(strconv.Itoa(s.pid))
	b.WriteByte('|')
	b.WriteString(string(s.input))
	b.WriteByte('|')
	writeBallot(s.ballot)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(s.phase)))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(s.idx))
	b.WriteByte('|')
	writeBallot(s.ownBal)
	b.WriteByte('|')
	b.WriteString(string(s.ownInp))
	b.WriteByte('|')
	b.WriteString(string(s.proposal))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(remap.apply(s.maxK)))
	if s.aborting {
		b.WriteByte('!')
	}
	b.WriteByte('|')
	writeBallot(s.maxBal)
	b.WriteByte('|')
	b.WriteString(string(s.balInp))
}
