package valency

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/model"
)

// The reference batch: the mask BFS as it stood before the batch search
// moved onto explore.Expander — every node a retained model.Config, a
// fingerprint map for the visited set, moves applied with model.Apply.
// Memo and solo seeding follow the query's rules, so a fresh oracle that
// runs refBatch must end with the same memo rows as one that runs the
// production batch.

// refOutcome is one candidate's reference resolution.
type refOutcome struct {
	verdict *Verdict
	exact   bool
}

type refNode struct {
	parent int32
	via    model.Move
	mask   uint64
}

// refBatch resolves every candidate like query does: memo, solo seeding,
// then one mask BFS over the unresolved rest, memoising exact verdicts.
func refBatch(ctx context.Context, o *Oracle, c model.Config, cands [][]int, budget int) ([]refOutcome, error) {
	outs := make([]refOutcome, len(cands))
	keys := make([]queryKey, len(cands))
	var active []int
	for i, p := range cands {
		key, err := o.queryKey(c, p)
		if err != nil {
			return nil, err
		}
		keys[i] = key
		if v, ok := o.memo.verdicts[key]; ok {
			outs[i] = refOutcome{verdict: v, exact: true}
			continue
		}
		v := newVerdict()
		if err := o.seedSolo(ctx, c, p, v); err != nil {
			return nil, err
		}
		outs[i].verdict = v
		if v.Bivalent() {
			o.memo.verdicts[key] = v
			outs[i].exact = true
			continue
		}
		active = append(active, i)
	}
	if len(active) == 0 {
		return outs, nil
	}
	exhausted, err := refSearch(ctx, o, c, cands, active, outs, budget)
	if err != nil {
		return nil, err
	}
	for _, i := range active {
		if outs[i].verdict.Bivalent() || exhausted {
			o.memo.verdicts[keys[i]] = outs[i].verdict
			outs[i].exact = true
		}
	}
	return outs, nil
}

// refSearch is the retained-Config mask BFS. It reports whether the union
// space was exhausted within the budget.
func refSearch(ctx context.Context, o *Oracle, c model.Config, cands [][]int, active []int, outs []refOutcome, budget int) (bool, error) {
	maxConfigs := effectiveMax(o.opts)
	if budget > 0 && budget < maxConfigs {
		maxConfigs = budget
	}
	inUnion := make(map[int]uint64)
	for bit, i := range active {
		for _, pid := range cands[i] {
			inUnion[pid] |= 1 << uint(bit)
		}
	}
	union := make([]int, 0, len(inUnion))
	for pid := range inUnion {
		union = append(union, pid)
	}
	slices.Sort(union)

	allBits := uint64(1)<<uint(len(active)) - 1
	liveBits := allBits
	fper := o.opts.NewFingerprinter()
	seen := map[explore.Fingerprint]uint64{fper.Fingerprint(c): allBits}
	nodes := []refNode{{parent: -1, mask: allBits}}
	cfgs := []model.Config{c}
	witnessIDs := make([]map[model.Value]int32, len(active))
	for bit := range witnessIDs {
		witnessIDs[bit] = make(map[model.Value]int32)
	}
	note := func(id int32) {
		cfg := cfgs[id]
		for pid := 0; pid < cfg.NumProcesses(); pid++ {
			val, ok := cfg.Decided(pid)
			if !ok {
				continue
			}
			for m := nodes[id].mask & liveBits; m != 0; m &= m - 1 {
				bit := bits.TrailingZeros64(m)
				v := outs[active[bit]].verdict
				if v.Decidable[val] {
					continue
				}
				v.Decidable[val] = true
				witnessIDs[bit][val] = id
				if v.Bivalent() {
					liveBits &^= 1 << uint(bit)
				}
			}
		}
	}
	count := 1
	capped := false
	note(0)
	for lo := 0; lo < len(nodes) && liveBits != 0 && !capped; lo++ {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if count >= maxConfigs {
			capped = true
			break
		}
		mask := nodes[lo].mask & liveBits
		if mask == 0 {
			continue
		}
		cfg := cfgs[lo]
		for _, mv := range explore.Moves(cfg, union) {
			childMask := mask & inUnion[mv.Pid]
			if childMask == 0 {
				continue
			}
			child := model.Apply(cfg, mv)
			fp := fper.Fingerprint(child)
			prev, ok := seen[fp]
			if ok && childMask&^prev == 0 {
				continue
			}
			if !ok {
				count++
			}
			seen[fp] = prev | childMask
			id := int32(len(nodes))
			nodes = append(nodes, refNode{parent: int32(lo), via: mv, mask: childMask})
			cfgs = append(cfgs, child)
			note(id)
			if liveBits == 0 {
				break
			}
			if count >= maxConfigs {
				capped = true
				break
			}
		}
	}
	for bit, i := range active {
		for val, id := range witnessIDs[bit] {
			var rev model.Path
			for ; id > 0; id = nodes[id].parent {
				rev = append(rev, nodes[id].via)
			}
			slices.Reverse(rev)
			outs[i].verdict.Witness[val] = rev
		}
	}
	return !capped, nil
}

// batchCase is one differential trial: a reachable configuration, its
// Lemma 1 candidate sets (or a subset of them) and a budget.
type batchCase struct {
	name   string
	opts   explore.Options
	c      model.Config
	cands  [][]int
	budget int
}

// batchProtocols are the differential protocols. The oracle's cap keeps
// the retained-Config reference small; Workers 1 pins the one-candidate
// Reach path to a sequential visit order, so its witnesses are the
// reference's.
var batchProtocols = []struct {
	name   string
	m      model.Machine
	inputs []model.Value
	opts   explore.Options
}{
	{"diskrace3", consensus.DiskRace{}, []model.Value{"0", "1", "1"},
		explore.Options{MaxConfigs: 4096, Workers: 1, Canon: consensus.DiskRace{}}},
	{"diskrace4", consensus.DiskRace{}, []model.Value{"0", "1", "1", "1"},
		explore.Options{MaxConfigs: 4096, Workers: 1, Canon: consensus.DiskRace{}}},
	{"flood2", consensus.Flood{}, []model.Value{"0", "1"}, explore.Options{MaxConfigs: 4096, Workers: 1}},
	{"flood3", consensus.Flood{}, []model.Value{"0", "1", "1"}, explore.Options{MaxConfigs: 4096, Workers: 1}},
}

var batchBudgets = []int{32, 1 << 10, 0}

// newBatchCase walks rng-chosen moves from the protocol's initial
// configuration and keeps the Lemma 1 candidates p-{z} (p all processes)
// whose bit is set in subset (all of them when subset selects none).
func newBatchCase(rng *rand.Rand, proto int, subset uint64, budget int) batchCase {
	bp := batchProtocols[proto]
	c := model.NewConfig(bp.m, bp.inputs)
	all := make([]int, c.NumProcesses())
	for pid := range all {
		all[pid] = pid
	}
	steps := rng.Intn(16)
	for s := 0; s < steps; s++ {
		moves := explore.Moves(c, all)
		if len(moves) == 0 {
			break
		}
		c = model.Apply(c, moves[rng.Intn(len(moves))])
	}
	var cands [][]int
	for i, z := range all {
		if subset&(1<<uint(i)) != 0 {
			cands = append(cands, model.Without(all, z))
		}
	}
	if len(cands) == 0 {
		for _, z := range all {
			cands = append(cands, model.Without(all, z))
		}
	}
	return batchCase{
		name:   fmt.Sprintf("%s/steps=%d/cands=%v/budget=%d", bp.name, steps, cands, budget),
		opts:   bp.opts,
		c:      c,
		cands:  cands,
		budget: budget,
	}
}

// checkBatchMatchesReference holds ProbeBivalentBatch and, for the full
// budget, DecideBatch to the reference: identical per-candidate results,
// identical memo rows (decidable sets, witness paths and solo rows) and
// identical verdicts.
func checkBatchMatchesReference(t *testing.T, bc batchCase) {
	t.Helper()
	ctx := context.Background()
	ref := New(bc.opts)
	want, err := refBatch(ctx, ref, bc.c, bc.cands, bc.budget)
	if err != nil {
		t.Fatalf("%s: reference: %v", bc.name, err)
	}
	probe := New(bc.opts)
	got, err := probe.ProbeBivalentBatch(ctx, bc.c, bc.cands, bc.budget)
	if err != nil {
		t.Fatalf("%s: ProbeBivalentBatch: %v", bc.name, err)
	}
	for i := range bc.cands {
		if w := want[i].verdict.Bivalent(); got[i] != w {
			t.Fatalf("%s: candidate %v: batch bivalent=%v, reference %v", bc.name, bc.cands[i], got[i], w)
		}
	}
	if g, w := ExportMemo(probe.memo), ExportMemo(ref.memo); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: memo rows differ\nbatch:     %+v\nreference: %+v", bc.name, g, w)
	}
	if bc.budget != 0 {
		return
	}
	decide := New(bc.opts)
	verdicts, err := decide.DecideBatch(ctx, bc.c, bc.cands)
	exact := true
	for _, out := range want {
		exact = exact && out.exact
	}
	if !exact {
		if err == nil {
			t.Fatalf("%s: DecideBatch answered where the reference was capped", bc.name)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: DecideBatch: %v", bc.name, err)
	}
	for i, v := range verdicts {
		if !reflect.DeepEqual(v, want[i].verdict) {
			t.Fatalf("%s: candidate %v: DecideBatch %+v, reference %+v", bc.name, bc.cands[i], v, want[i].verdict)
		}
	}
	if g, w := ExportMemo(decide.memo), ExportMemo(ref.memo); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: DecideBatch memo rows differ from the reference", bc.name)
	}
}

// TestBatchMatchesReference runs the differential check over random
// reachable configurations of every protocol, with the full Lemma 1
// candidate sets and every budget.
func TestBatchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for proto := range batchProtocols {
		for _, budget := range batchBudgets {
			for trial := 0; trial < trials; trial++ {
				checkBatchMatchesReference(t, newBatchCase(rng, proto, 0, budget))
			}
		}
	}
}

// FuzzBatchMatchesReference is the same check with the input bytes
// choosing the protocol, the random walk, the candidate subset (a subset
// of one candidate takes the one-candidate Reach path) and the budget.
func FuzzBatchMatchesReference(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(0), uint8(0))
	f.Add(uint8(1), int64(2), uint8(0b0110), uint8(1))
	f.Add(uint8(2), int64(3), uint8(0b01), uint8(2))
	f.Add(uint8(3), int64(4), uint8(0b101), uint8(2))
	f.Add(uint8(1), int64(5), uint8(0b1000), uint8(0))
	f.Fuzz(func(t *testing.T, proto uint8, seed int64, subset, budget uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkBatchMatchesReference(t, newBatchCase(rng,
			int(proto)%len(batchProtocols), uint64(subset),
			batchBudgets[int(budget)%len(batchBudgets)]))
	})
}
