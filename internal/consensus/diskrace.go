package consensus

import (
	"fmt"
	"strconv"

	"repro/internal/model"
)

// Ballot is a totally ordered proposal identifier (round, owner), compared
// lexicographically. Distinct processes never share a ballot because the
// owner field breaks ties. The zero Ballot is smaller than every real one.
type Ballot struct {
	K   int // round number, ≥ 1 for real ballots
	Pid int // owning process
}

// Less reports strict lexicographic order.
func (b Ballot) Less(o Ballot) bool {
	if b.K != o.K {
		return b.K < o.K
	}
	return b.Pid < o.Pid
}

// IsZero reports whether b is the null ballot.
func (b Ballot) IsZero() bool { return b.K == 0 }

// String implements fmt.Stringer ("k.pid").
func (b Ballot) String() string {
	return strconv.Itoa(b.K) + "." + strconv.Itoa(b.Pid)
}

// DiskRace is obstruction-free binary consensus from n single-writer
// registers: Gafni and Lamport's Disk Paxos specialised to a single "disk"
// with one block per process. It is the repository's general upper-bound
// protocol — n registers for n processes, matching the n-1 lower bound of
// the paper to within one register (the gap the paper's Section 4 conjectures
// should close at n).
//
// Register R[p], written only by process p, holds a triple
// (mbal, bal, inp): the largest ballot p has started, the largest ballot at
// which p completed phase 1, and the value p proposed at bal. A process at
// ballot b = (k, p) runs:
//
//	phase 1: write (mbal=b) to R[p]; read all registers. If any register
//	         shows mbal' > b, abort to phase 1 with round max(k')+1.
//	         Otherwise proposal := inp of the largest bal seen, or the
//	         process's own input if every bal is null.
//	phase 2: write (mbal=b, bal=b, inp=proposal) to R[p]; read all
//	         registers. If any register shows mbal' > b, abort as above.
//	         Otherwise decide proposal.
//
// Safety is Disk Paxos safety (Gafni & Lamport 2002, Lemmas 1-3; the single
// disk is trivially a majority of one), and is additionally model-checked
// here for small n — exactly, despite the unbounded ballot space, via the
// gap-capped ballot canonicalisation DiskRace implements as a model.Canon. Obstruction freedom:
// a process running alone aborts at most once, adopts a round above
// everything it saw, and then completes both phases unopposed.
//
// Ballots grow without bound under contention, which after Flood's finite-
// alphabet counterexamples is not an accident of the construction but the
// price of correctness.
type DiskRace struct{}

var _ model.Machine = DiskRace{}

// Name implements model.Machine.
func (DiskRace) Name() string { return "diskrace" }

// Registers implements model.Machine: one single-writer register per process.
func (DiskRace) Registers(n int) int { return n }

// Init implements model.Machine.
func (DiskRace) Init(n, pid int, input model.Value) model.State {
	if input != "0" && input != "1" {
		panic(fmt.Sprintf("diskrace: input must be binary, got %q", string(input)))
	}
	return diskState{
		n: n, pid: pid, input: input,
		ballot: Ballot{K: 1, Pid: pid},
		phase:  diskP1Write,
	}
}

// diskBlock is the decoded contents of one register.
type diskBlock struct {
	Mbal Ballot
	Bal  Ballot
	Inp  model.Value
}

func (b diskBlock) encode() model.Value {
	// Built through a stack array so the only allocation is the final
	// string copy: encode runs on every write step of every explored
	// execution, where the three-way concat's intermediate ballot strings
	// were measurable.
	var arr [40]byte
	buf := strconv.AppendInt(arr[:0], int64(b.Mbal.K), 10)
	buf = append(buf, '.')
	buf = strconv.AppendInt(buf, int64(b.Mbal.Pid), 10)
	buf = append(buf, ';')
	buf = strconv.AppendInt(buf, int64(b.Bal.K), 10)
	buf = append(buf, '.')
	buf = strconv.AppendInt(buf, int64(b.Bal.Pid), 10)
	buf = append(buf, ';')
	buf = append(buf, b.Inp...)
	return model.Value(buf)
}

// decodeBlock is parseBlock for values the protocol itself wrote.
func decodeBlock(v model.Value) diskBlock {
	b, ok := parseBlock(v)
	if !ok {
		panic(fmt.Sprintf("diskrace: register holds %q, not a block", string(v)))
	}
	return b
}

type diskPhase uint8

const (
	diskP1Write diskPhase = iota + 1
	diskP1Scan
	diskP2Write
	diskP2Scan
	diskDone
)

// diskState is the immutable local state of one DiskRace process.
type diskState struct {
	n     int
	pid   int
	input model.Value

	ballot Ballot
	phase  diskPhase

	// own mirrors the process's register so phase-1 writes can preserve
	// the previously accepted (bal, inp).
	ownBal Ballot
	ownInp model.Value

	// proposal is the value chosen at the end of phase 1.
	proposal model.Value

	// Scan bookkeeping. Only two facts about the mbal fields seen so far
	// matter: the largest round (for the retry ballot) and whether any of
	// them exceeded our ballot (abort). Tracking a full (round, pid) pair
	// here would multiply the reachable state space by ~n for no
	// behavioural difference, which exhaustive search cannot afford.
	idx      int
	maxK     int
	aborting bool
	maxBal   Ballot
	balInp   model.Value
}

var _ model.State = diskState{}

// Pending implements model.State.
func (s diskState) Pending() model.Op {
	switch s.phase {
	case diskP1Write:
		block := diskBlock{Mbal: s.ballot, Bal: s.ownBal, Inp: s.ownInp}
		return model.Op{Kind: model.OpWrite, Reg: s.pid, Arg: block.encode()}
	case diskP2Write:
		block := diskBlock{Mbal: s.ballot, Bal: s.ballot, Inp: s.proposal}
		return model.Op{Kind: model.OpWrite, Reg: s.pid, Arg: block.encode()}
	case diskP1Scan, diskP2Scan:
		return model.Op{Kind: model.OpRead, Reg: s.idx}
	case diskDone:
		return model.Op{Kind: model.OpDecide, Arg: s.proposal}
	default:
		panic(fmt.Sprintf("diskrace: invalid phase %d", s.phase))
	}
}

var _ model.OpPeeker = diskState{}

// PeekOp implements model.OpPeeker: the pending kind and register without
// Pending's block encoding, which move enumeration and cover checks would
// otherwise pay on every write-poised inspection.
func (s diskState) PeekOp() (model.OpKind, int) {
	switch s.phase {
	case diskP1Write, diskP2Write:
		return model.OpWrite, s.pid
	case diskP1Scan, diskP2Scan:
		return model.OpRead, s.idx
	case diskDone:
		return model.OpDecide, 0
	default:
		panic(fmt.Sprintf("diskrace: invalid phase %d", s.phase))
	}
}

// Next implements model.State.
func (s diskState) Next(in model.Value) model.State {
	switch s.phase {
	case diskP1Write:
		next := s
		next.phase = diskP1Scan
		next.idx = 0
		next.maxK, next.aborting = 0, false
		next.maxBal, next.balInp = Ballot{}, model.Bottom
		return next
	case diskP2Write:
		next := s
		next.ownBal, next.ownInp = s.ballot, s.proposal
		next.phase = diskP2Scan
		next.idx = 0
		next.maxK, next.aborting = 0, false
		return next
	case diskP1Scan:
		block := decodeBlock(in)
		next := s
		next.observeMbal(block.Mbal)
		if next.maxBal.Less(block.Bal) {
			next.maxBal = block.Bal
			next.balInp = block.Inp
		}
		if next.idx+1 < next.n {
			next.idx++
			return next
		}
		if next.aborting {
			return next.abort()
		}
		// Phase 1 complete: choose the proposal.
		next.proposal = next.balInp
		if next.maxBal.IsZero() {
			next.proposal = next.input
		}
		next.phase = diskP2Write
		return next
	case diskP2Scan:
		block := decodeBlock(in)
		next := s
		next.observeMbal(block.Mbal)
		if next.idx+1 < next.n {
			next.idx++
			return next
		}
		if next.aborting {
			return next.abort()
		}
		next.phase = diskDone
		return next
	default:
		panic("diskrace: Next on terminated state")
	}
}

// observeMbal folds one register's mbal field into the scan trackers.
// The receiver is a copy being built by Next, hence the pointer.
func (s *diskState) observeMbal(mbal Ballot) {
	if mbal.K > s.maxK {
		s.maxK = mbal.K
	}
	if s.ballot.Less(mbal) {
		s.aborting = true
	}
}

// abort restarts phase 1 with a round strictly above everything observed
// (aborting implies some mbal above our ballot was seen, so maxK is at
// least our own round).
func (s diskState) abort() diskState {
	next := s
	next.ballot = Ballot{K: s.maxK + 1, Pid: s.pid}
	next.phase = diskP1Write
	next.idx = 0
	next.maxK, next.aborting = 0, false
	next.maxBal, next.balInp = Ballot{}, model.Bottom
	next.proposal = model.Bottom
	return next
}

// Key implements model.State. It is the reference form of KeyTo.
func (s diskState) Key() string {
	return fmt.Sprintf("D%d|%d|%s|%v|%d|%d|%v|%s|%s|%d.%t|%v|%s",
		s.n, s.pid, string(s.input), s.ballot, s.phase, s.idx,
		s.ownBal, string(s.ownInp), string(s.proposal),
		s.maxK, s.aborting, s.maxBal, string(s.balInp))
}

var _ model.StateKeyWriter = diskState{}

// KeyTo implements model.StateKeyWriter, streaming exactly the bytes Key
// returns without fmt.
func (s diskState) KeyTo(w model.KeyWriter) {
	writeBallot := func(b Ballot) {
		w.WriteInt(b.K)
		_ = w.WriteByte('.')
		w.WriteInt(b.Pid)
	}
	_ = w.WriteByte('D')
	w.WriteInt(s.n)
	_ = w.WriteByte('|')
	w.WriteInt(s.pid)
	_ = w.WriteByte('|')
	_, _ = w.WriteString(string(s.input))
	_ = w.WriteByte('|')
	writeBallot(s.ballot)
	_ = w.WriteByte('|')
	w.WriteInt(int(s.phase))
	_ = w.WriteByte('|')
	w.WriteInt(s.idx)
	_ = w.WriteByte('|')
	writeBallot(s.ownBal)
	_ = w.WriteByte('|')
	_, _ = w.WriteString(string(s.ownInp))
	_ = w.WriteByte('|')
	_, _ = w.WriteString(string(s.proposal))
	_ = w.WriteByte('|')
	w.WriteInt(s.maxK)
	_ = w.WriteByte('.')
	if s.aborting {
		_, _ = w.WriteString("true")
	} else {
		_, _ = w.WriteString("false")
	}
	_ = w.WriteByte('|')
	writeBallot(s.maxBal)
	_ = w.WriteByte('|')
	_, _ = w.WriteString(string(s.balInp))
}
