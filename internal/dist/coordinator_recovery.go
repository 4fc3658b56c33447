package dist

import (
	"encoding/json"
	"fmt"
	"time"
)

// Crash recovery (S25). The coordinator's durable state is what a restart
// needs to resume the barrier at the last closed level: closed-level stats,
// per-slice checkpoints, retained exchange chunks and the step total, as
// of the newest level-close snapshot. The posts accepted since that close
// are lost, and the level in flight is redone: every slice re-adopts from
// its checkpoint and reposts identical bytes. Leases are deliberately NOT
// persisted — a restart is a mass revocation: every slice comes back
// unowned, workers re-acquire under a bumped generation's epochs, and
// epoch fencing rejects anything a pre-crash zombie still posts.

// Status is the coordinator's externally visible barrier position, served
// at GET /dist/status for supervisors and the chaos harness.
type Status struct {
	Level int  `json:"level"`
	Done  bool `json:"done"`
	Gen   int  `json:"gen"`
}

// Status reports the barrier position.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{Level: c.level, Done: c.done, Gen: c.gen}
}

// AttachJournal wires a journal to the coordinator and publishes a
// snapshot of the resulting state. Call it before the coordinator serves
// any request. A fresh journal gets a snapshot of the empty run, so even a
// crash before the first level close restarts cleanly. A journal that
// holds prior state must be in this layout's format and describe this
// exact run — same spec, same root fingerprint — and the coordinator
// recovers from it here: it loads the snapshot, forgets every lease and
// bumps the generation. A snapshot that cannot be published is an error,
// so no generation is ever granted under before it is durable; the
// coordinator must then be discarded.
func (c *Coordinator) AttachJournal(j *Journal) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal != nil {
		return fmt.Errorf("dist: journal already attached")
	}
	st := j.recovered
	if st != nil {
		meta := st.meta
		if meta.Format != journalFormat {
			return fmt.Errorf("dist: journal %s has format %d, this coordinator reads format %d", j.Dir(), meta.Format, journalFormat)
		}
		if meta.Spec != c.spec {
			return fmt.Errorf("dist: journal %s belongs to a different run: spec %+v, this run is %+v", j.Dir(), meta.Spec, c.spec)
		}
		if meta.RootFP != [2]uint64(c.rootFP) {
			return fmt.Errorf("dist: journal %s belongs to a different run: root fingerprint mismatch", j.Dir())
		}
		j.recovered = nil
		c.restoreLocked(st)
	}
	if err := j.snapshot(c.snapshotRecordsLocked(j.seq)); err != nil {
		return fmt.Errorf("dist: publishing journal snapshot: %w", err)
	}
	c.journal = j
	if st != nil {
		c.scope.Event("dist_recovered")
	}
	return nil
}

// restoreLocked rebuilds the coordinator from a loaded snapshot under a
// new generation.
func (c *Coordinator) restoreLocked(st *journalState) {
	c.level = st.meta.Level
	c.steps = st.meta.Steps
	c.done = st.meta.Done
	c.levels = st.levels
	c.chunks = st.chunks
	// New generation: rebase every epoch above anything a dead incarnation
	// ever granted. An incarnation grants only after its post-recovery
	// snapshot is published, and keep-2 GC leaves at most one snapshot
	// newer than a fallback, carrying at most one generation more; so when
	// OpenJournal skipped that snapshot, bump past it.
	c.gen = st.meta.Gen + 1
	if st.skipped {
		c.gen++
	}
	// Lease amnesia: every slice unowned, every worker forgotten (see the
	// package comment above). The grant grace restarts with this
	// incarnation's first poll.
	for s := range c.slices {
		ss := &st.slices[s]
		c.slices[s] = sliceInfo{
			ckpt:      ss.ckpt,
			ckptLevel: ss.ckptLevel,
			hasCkpt:   ss.hasCkpt,
			everOwned: ss.everOwned,
			epoch:     c.gen << epochGenShift,
			expanded:  ss.expanded,
			mark:      ss.mark,
			reassigns: ss.reassigns,
		}
	}
	c.workers = make(map[string]time.Time)
	c.firstPoll = time.Time{}
	if c.done {
		// The witness is a pure function of the recovered stats; rendering
		// beats persisting a second copy that could disagree.
		c.witness = RenderWitness(c.spec, c.levels, c.steps)
		close(c.doneCh)
		c.scope.Gauge("dist_done").Set(1)
	}
	c.levelStart = time.Now()
	c.scope.Gauge("dist_level").Set(int64(c.level))
	c.scope.Gauge("dist_gen").Set(int64(c.gen))
}

// epochGenShift positions the generation number inside slice epochs:
// epochs restart at gen<<20 after every recovery, so as long as one
// incarnation grants a slice fewer than 2^20 times, a zombie's fenced
// epoch can never equal a post-restart one.
const epochGenShift = 20

// snapshotLocked persists the full current state. A failure is already
// counted by the journal and leaves the previous snapshot as the recovery
// point; the run carries on in memory.
func (c *Coordinator) snapshotLocked() {
	if c.journal == nil {
		return
	}
	_ = c.journal.snapshot(c.snapshotRecordsLocked(c.journal.seq))
}

// snapshotRecordsLocked encodes the coordinator's durable state as the
// record sequence of one snapshot segment.
func (c *Coordinator) snapshotRecordsLocked(seq uint64) [][]byte {
	meta := journalMeta{
		Format: journalFormat,
		Seq:    seq,
		Gen:    c.gen,
		Level:  c.level,
		Steps:  c.steps,
		Done:   c.done,
		Spec:   c.spec,
		RootFP: [2]uint64(c.rootFP),
		Levels: len(c.levels),
		Slices: len(c.slices),
		Chunks: len(c.chunks),
	}
	metaBody, err := json.Marshal(meta)
	if err != nil {
		// journalMeta is a fixed struct of marshalable fields; this cannot
		// fail, and a panic here beats silently writing a broken snapshot.
		panic(fmt.Sprintf("dist: encoding journal meta: %v", err))
	}
	records := make([][]byte, 0, 1+len(c.levels)+len(c.slices)+len(c.chunks))
	records = append(records, (&journalRec{Tag: jrecMeta, Body: metaBody}).encode())
	for _, lv := range c.levels {
		records = append(records, (&journalRec{Tag: jrecLevel, Fresh: lv.Fresh, Digest: lv.Digest}).encode())
	}
	for s := range c.slices {
		sl := &c.slices[s]
		var flags byte
		if sl.hasCkpt {
			flags |= sflagHasCkpt
		}
		if sl.expanded {
			flags |= sflagExpanded
		}
		if sl.everOwned {
			flags |= sflagEverOwned
		}
		records = append(records, (&journalRec{
			Tag:       jrecSlice,
			Slice:     s,
			Flags:     flags,
			CkptLevel: sl.ckptLevel,
			Steps:     sl.mark.Steps,
			Fresh:     sl.mark.Fresh,
			Digest:    sl.mark.Digest,
			Reassigns: sl.reassigns,
			Body:      sl.ckpt,
		}).encode())
	}
	for key, body := range c.chunks {
		records = append(records, (&journalRec{
			Tag:   jrecRetained,
			Level: key.level,
			From:  key.from,
			To:    key.to,
			Body:  body,
		}).encode())
	}
	return records
}
