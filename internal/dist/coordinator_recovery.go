package dist

import (
	"encoding/json"
	"fmt"
	"time"
)

// Crash recovery (S25). The coordinator's durable state is everything a
// restart needs to resume the barrier at the exact level: closed-level
// stats, per-slice checkpoints and barrier marks, retained exchange chunks,
// and the step total. Leases are deliberately NOT persisted — a restart is
// a mass revocation: every slice comes back unowned, workers re-acquire
// under a bumped generation's epochs, and epoch fencing rejects anything a
// pre-crash zombie still posts. Every mark survives: a slice is marked
// only after its checkpoint at the level and every outgoing chunk landed,
// so a new owner of a marked slice simply waits for the next level and
// catches up from that checkpoint and the retained chunks.

// Status is the coordinator's externally visible barrier position, served
// at GET /dist/status for supervisors and the chaos harness.
type Status struct {
	Level      int  `json:"level"`
	Done       bool `json:"done"`
	Recovering bool `json:"recovering"`
	Gen        int  `json:"gen"`
}

// Status reports the barrier position.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		Level:      c.level,
		Done:       c.done,
		Recovering: c.recovering,
		Gen:        c.gen,
	}
}

// Recovering reports whether the coordinator is between AttachJournal
// finding prior state and Recover finishing the sweep — the window in
// which the worker surface answers 503 and readiness is down.
func (c *Coordinator) Recovering() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recovering
}

// AttachJournal wires a journal to the coordinator. A journal that holds
// prior state (its directory survived a crash) must be in this layout's
// format and describe this exact run — same spec, same root fingerprint —
// and puts the coordinator into the recovering state until Recover is
// called; a fresh journal is seeded with a snapshot of the empty run
// immediately, so even a crash before the first level close restarts
// cleanly.
func (c *Coordinator) AttachJournal(j *Journal) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal != nil {
		return fmt.Errorf("dist: journal already attached")
	}
	if j.Recovered() {
		meta := j.recovered.meta
		if meta.Format != journalFormat {
			return fmt.Errorf("dist: journal %s has format %d, this coordinator reads format %d", j.Dir(), meta.Format, journalFormat)
		}
		if meta.Spec != c.spec {
			return fmt.Errorf("dist: journal %s belongs to a different run: spec %+v, this run is %+v", j.Dir(), meta.Spec, c.spec)
		}
		if meta.RootFP != [2]uint64(c.rootFP) {
			return fmt.Errorf("dist: journal %s belongs to a different run: root fingerprint mismatch", j.Dir())
		}
		c.journal = j
		c.recovering = true
		c.pending = make(map[chunkKey][]byte)
		c.scope.Gauge("dist_recovering").Set(1)
		return nil
	}
	c.journal = j
	if err := j.attachFresh(c.snapshotRecordsLocked(0)); err != nil {
		c.journal = nil
		return fmt.Errorf("dist: seeding journal: %w", err)
	}
	return nil
}

// Recover runs the startup recovery sweep: rebuild the in-memory state
// from the journal's newest intact snapshot, replay the WAL through the
// same apply paths the live handlers use, drop every lease, fence the new
// generation's epochs, persist a fresh snapshot, and only then open the
// worker surface. Chunk posts stashed while the sweep ran are installed
// last, first-write-wins, with journaled bytes taking precedence. A no-op
// (and nil) when the attached journal had no prior state.
func (c *Coordinator) Recover() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.journal
	if j == nil || !j.Recovered() {
		c.recovering = false
		return nil
	}
	st := j.recovered
	j.recovered = nil

	// Snapshot state first.
	c.level = st.meta.Level
	c.steps = st.meta.Steps
	c.gen = st.meta.Gen
	c.done = st.meta.Done
	c.levels = append([]LevelStat(nil), st.levels...)
	c.chunks = st.chunks
	for s := range c.slices {
		ss := &st.slices[s]
		sl := &c.slices[s]
		sl.owner = ""
		sl.ckpt = ss.ckpt
		sl.ckptLevel = ss.ckptLevel
		sl.hasCkpt = ss.hasCkpt
		sl.everOwned = ss.everOwned
		sl.expanded = ss.expanded
		sl.mark = ss.mark
		sl.reassigns = ss.reassigns
	}

	// Replay the WAL through the live apply paths; journal appends and
	// wall-clock observations are suppressed, level closes (and their
	// pruning) happen exactly as they did the first time.
	c.replaying = true
	for _, rec := range st.walRecs {
		c.replayLocked(rec)
	}
	c.replaying = false

	if c.done && c.witness == nil {
		// The witness is a pure function of the recovered stats; rendering
		// beats persisting a second copy that could disagree.
		c.witness = RenderWitness(c.spec, c.levels, c.steps)
		select {
		case <-c.doneCh:
		default:
			close(c.doneCh)
		}
		c.scope.Gauge("dist_done").Set(1)
	}

	// Lease amnesia: every slice unowned, every worker forgotten (see the
	// package comment above). The grant grace restarts with this
	// incarnation's first poll.
	c.workers = make(map[string]time.Time)
	c.firstPoll = time.Time{}

	// New generation: rebase every epoch above anything the dead
	// incarnation ever granted, and make the bump durable both in the
	// post-recovery snapshot and as the new WAL's first record — the
	// latter keeps it visible even to a future recovery that has to fall
	// back past this snapshot.
	c.gen++
	for s := range c.slices {
		c.slices[s].epoch = c.gen << epochGenShift
	}
	if err := j.snapshot(c.snapshotRecordsLocked(j.nextSeq())); err != nil {
		c.scope.Event("dist_recovery_snapshot_failed")
	}
	j.append(journalRec{Tag: jrecGen, Gen: c.gen})

	// Install chunk posts that raced the sweep. The journal's copy wins;
	// a pending chunk lands only if the journal held nothing for its key
	// and its level is still open.
	for key, body := range c.pending {
		if c.done || key.level != c.level {
			continue
		}
		if _, ok := c.chunks[key]; ok {
			continue
		}
		c.journal.append(journalRec{Tag: jrecChunk, Level: key.level, From: key.from, To: key.to, Body: body})
		c.applyChunkLocked(key, body, time.Now())
	}
	c.pending = nil

	c.recovering = false
	c.levelStart = time.Now()
	c.notifyLocked()
	c.scope.Gauge("dist_recovering").Set(0)
	c.scope.Gauge("dist_level").Set(int64(c.level))
	c.scope.Gauge("dist_gen").Set(int64(c.gen))
	c.scope.Event("dist_recovered")
	return nil
}

// epochGenShift positions the generation number inside slice epochs:
// epochs restart at gen<<20 after every recovery, so as long as one
// incarnation grants a slice fewer than 2^20 times, a zombie's fenced
// epoch can never equal a post-restart one.
const epochGenShift = 20

// replayLocked applies one WAL record. Records that no longer make sense —
// a chunk or mark for a level the replayed advances already closed — are
// skipped silently: the WAL may span several levels when snapshots were
// failing, and each close prunes what the next records legitimately
// re-post.
func (c *Coordinator) replayLocked(rec journalRec) {
	switch rec.Tag {
	case jrecCkpt:
		if rec.Slice < len(c.slices) {
			c.applyCheckpointLocked(rec.Slice, rec.Level, rec.Body)
		}
	case jrecChunk:
		if rec.Level == c.level && !c.done {
			c.applyChunkLocked(chunkKey{level: rec.Level, from: rec.From, to: rec.To}, rec.Body, time.Time{})
		}
	case jrecExpanded:
		if rec.Slice < len(c.slices) && rec.Level == c.level && !c.done {
			c.applyExpandedLocked(rec.Slice, levelMark{Steps: rec.Steps, Fresh: rec.Fresh, Digest: rec.Digest})
		}
	case jrecGen:
		if rec.Gen > c.gen {
			c.gen = rec.Gen
		}
	}
}

// snapshotLocked persists the full current state and rotates the WAL; a
// failure is already counted by the journal and leaves the current WAL
// growing, which replay handles (it spans however many levels the WAL
// accumulated).
func (c *Coordinator) snapshotLocked() {
	if c.journal == nil || c.replaying {
		return
	}
	_ = c.journal.snapshot(c.snapshotRecordsLocked(c.journal.nextSeq()))
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
