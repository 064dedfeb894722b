package statestore

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"gaaapi/internal/conditions"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
	"gaaapi/internal/ids/adaptive"
	"gaaapi/internal/netblock"
)

// Record kinds journaled by the adaptive wiring. Exported: the cluster
// replication layer ships exactly these records between nodes, so the
// journal vocabulary is the replication vocabulary.
const (
	KindBlock   = "block"
	KindThreat  = "threat"
	KindCounter = "count"
	KindGroup   = "group"
	KindScore   = "score"
	KindProfile = "profile"
)

// Components are the adaptive-state holders a store keeps durable. Any
// field may be nil; it is then neither restored nor journaled.
type Components struct {
	// Blocks is the firewall-facing block set; restarts restore blocks
	// with their original expiries.
	Blocks *netblock.Set
	// Threat is the system threat level plus its escalation history.
	Threat *ids.Manager
	// Counters are the lockout/failure sliding-window counters;
	// restarts restore in-flight lockouts with original timestamps.
	Counters *conditions.Counters
	// Groups is the dynamic blacklist store ("BadGuys").
	Groups *groups.Store
	// Scorer is the self-adaptive threat-scoring engine; its per-source
	// score events and resource profile checkpoints persist and
	// replicate like the rest of the adaptive state.
	Scorer *adaptive.Engine
	// Clock overrides time.Now for expiry pruning (tests).
	Clock func() time.Time
}

// Adaptive binds a Store to live components: recovery replays the
// snapshot plus the WAL tail into them, then every further mutation is
// journaled, and compaction snapshots their current state. A nil store
// is allowed (memory-only deployments that still replicate): nothing
// is restored or journaled, but the mirror hook and remote-record
// application keep working.
type Adaptive struct {
	store *Store
	c     Components

	journalErrors atomic.Uint64
	restored      RestoreSummary

	// mirror receives every locally originated journal record (kind +
	// marshaled payload) — the cluster replication tap. Records applied
	// via ApplyRemote do NOT reach the mirror; that is what breaks
	// replication loops. Set once via SetMirror before serving traffic.
	mirror atomic.Pointer[func(kind string, data json.RawMessage)]
}

// RestoreSummary describes what Attach put back into the components.
type RestoreSummary struct {
	// Blocks is the number of live blocks restored.
	Blocks int `json:"blocks"`
	// ExpiredBlocks counts persisted blocks already past their deadline
	// at restore time (dropped).
	ExpiredBlocks int `json:"expired_blocks,omitempty"`
	// ThreatLevel is the restored level ("" when none was persisted).
	ThreatLevel string `json:"threat_level,omitempty"`
	// CounterEvents is the number of replayed counter events.
	CounterEvents int `json:"counter_events"`
	// GroupMembers is the number of restored group memberships.
	GroupMembers int `json:"group_members"`
	// Scores is the number of restored per-source score entries.
	Scores int `json:"scores,omitempty"`
	// Profiles is the number of restored resource profiles.
	Profiles int `json:"profiles,omitempty"`
}

// Attach restores the store's recovered state into the components and
// wires their journals into the store. Call once, before serving
// traffic. A nil store skips restore and journaling but still taps
// mutations for the mirror.
func Attach(store *Store, c Components) (*Adaptive, error) {
	if c.Clock == nil {
		c.Clock = time.Now
	}
	a := &Adaptive{store: store, c: c}

	if store != nil {
		if raw, ok := store.SnapshotData(); ok {
			if _, err := a.applySnapshot(raw, false); err != nil {
				return nil, fmt.Errorf("statestore: decode snapshot state: %w", err)
			}
		}
		for _, rec := range store.Tail() {
			if _, err := a.applyRecord(rec, false); err != nil {
				return nil, err
			}
		}
	}

	// Journal hooks go in after restore so replay is not re-journaled.
	for _, k := range kinds {
		if k.tap != nil && k.has(&c) {
			k.tap(a)
		}
	}
	if store != nil {
		store.SetSnapshotFunc(a.StateSnapshot)
	}
	return a, nil
}

// SetMirror installs the replication tap: fn receives the kind and
// marshaled payload of every locally originated mutation, after it was
// journaled (or counted as a journal error — replication keeps working
// through disk faults). Call before serving traffic.
func (a *Adaptive) SetMirror(fn func(kind string, data json.RawMessage)) {
	a.mirror.Store(&fn)
}

// append journals one mutation; failures (disk faults) are counted,
// not propagated — the server keeps enforcing from memory. The mirror,
// when set, sees the record regardless: a local disk fault must not
// stop the fleet from learning about an attacker.
func (a *Adaptive) append(kind string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		a.journalErrors.Add(1)
		return
	}
	if a.store != nil {
		if err := a.store.appendRaw(kind, data); err != nil {
			a.journalErrors.Add(1)
		}
	}
	if m := a.mirror.Load(); m != nil {
		(*m)(kind, data)
	}
}

// JournalErrors returns the count of appends lost to disk faults.
func (a *Adaptive) JournalErrors() uint64 { return a.journalErrors.Load() }

// Restored returns what Attach recovered into the components.
func (a *Adaptive) Restored() RestoreSummary { return a.restored }

// kind is one row of the replicated-state table: everything the store
// knows about one record kind. Attach, restore, replay, both remote
// merges and compaction loop over kinds, so adding a record kind is one
// row there plus its Components field.
type kind struct {
	name    string // WAL and replication record kind
	section string // key of the kind's section in the snapshot JSON
	// has reports whether the component holding the state is wired; no
	// other field is used when it is not.
	has func(*Components) bool
	// tap installs the component's journal hook.
	tap func(*Adaptive)
	// record applies one record, state one snapshot section.
	record, state hook
	// dump returns the live state as the snapshot section.
	dump func(*Adaptive) any
}

// A hook decodes a record payload or snapshot section and returns the
// mutation it asks for. The node's own data (WAL replay, its snapshot)
// runs with a nil journal: it is put back as written and counted in
// a.restored. A peer's runs with a journal: it is merged by the kind's
// replication rule (DESIGN.md "Cluster replication") and every change
// that took effect is handed to journal, to be persisted locally.
// Decoding is separate from running so a snapshot is vetted whole
// before any of it is applied.
type hook func(data []byte) (run func(a *Adaptive, journal func(any)), err error)

// on builds a hook from its typed form.
func on[T any](f func(a *Adaptive, v T, journal func(any))) hook {
	return func(data []byte) (func(*Adaptive, func(any)), error) {
		var v T
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, err
		}
		return func(a *Adaptive, journal func(any)) { f(a, v, journal) }, nil
	}
}

// took accounts for one change that took effect: a peer's is journaled,
// the node's own is counted as restored.
func took(v any, journal func(any), restored *int) {
	if journal != nil {
		journal(v)
	} else {
		*restored++
	}
}

// threatState is the threat level's snapshot section.
type threatState struct {
	Level   string           `json:"level"`
	History []ids.Transition `json:"history,omitempty"`
}

// kinds is the table, in snapshot section order. A peer's section
// carries its totals, not its events.
var kinds = []kind{
	{
		name: KindBlock, section: "blocks",
		has: func(c *Components) bool { return c.Blocks != nil },
		tap: func(a *Adaptive) {
			a.c.Blocks.SetJournal(func(ev netblock.Event) { a.append(KindBlock, ev) })
		},
		record: on(applyBlock),
		state: on(func(a *Adaptive, entries []netblock.Entry, journal func(any)) {
			for _, e := range entries {
				applyBlock(a, netblock.Event{Addr: e.Addr, Expiry: e.Expiry}, journal)
			}
		}),
		dump: func(a *Adaptive) any { return a.c.Blocks.Entries() },
	},
	{
		name: KindThreat, section: "threat",
		has: func(c *Components) bool { return c.Threat != nil },
		tap: func(a *Adaptive) {
			a.c.Threat.SetJournal(func(tr ids.Transition) { a.append(KindThreat, tr) })
		},
		record: on(applyThreat),
		state: on(func(a *Adaptive, ts threatState, journal func(any)) {
			level, err := ids.ParseLevel(ts.Level)
			switch {
			case err != nil:
			case journal == nil:
				a.c.Threat.Restore(level, ts.History)
				a.restored.ThreatLevel = level.String()
			default:
				tr := ids.Transition{To: level, At: a.c.Clock()}
				if n := len(ts.History); n > 0 {
					tr.At = ts.History[n-1].At
				}
				applyThreat(a, tr, journal)
			}
		}),
		dump: func(a *Adaptive) any {
			return threatState{Level: a.c.Threat.Level().String(), History: a.c.Threat.History()}
		},
	},

	// Counters are additive — every event lands in the sliding window —
	// so exactly-once is the replication cursors' job, and a peer's full
	// series is never merged (it would double-count).
	{
		name: KindCounter, section: "counters",
		has: func(c *Components) bool { return c.Counters != nil },
		tap: func(a *Adaptive) {
			a.c.Counters.SetJournal(func(ev conditions.CounterEvent) { a.append(KindCounter, ev) })
		},
		record: on(func(a *Adaptive, ev conditions.CounterEvent, journal func(any)) {
			if ev.Reset {
				a.c.Counters.Reset(ev.Key)
			} else {
				a.c.Counters.RestoreEvent(ev.Key, ev.At)
			}
			if journal != nil {
				journal(ev)
			} else if !ev.Reset {
				a.restored.CounterEvents++
			}
		}),
		state: on(func(a *Adaptive, series map[string][]time.Time, journal func(any)) {
			if journal != nil {
				return
			}
			for key, times := range series {
				for _, at := range times {
					a.c.Counters.RestoreEvent(key, at)
					a.restored.CounterEvents++
				}
			}
		}),
		dump: func(a *Adaptive) any { return a.c.Counters.Dump() },
	},
	{
		name: KindGroup, section: "groups",
		has: func(c *Components) bool { return c.Groups != nil },
		tap: func(a *Adaptive) {
			a.c.Groups.SetJournal(func(ev groups.Event) { a.append(KindGroup, ev) })
		},
		record: on(applyGroup),
		state: on(func(a *Adaptive, members map[string][]string, journal func(any)) {
			for group, ms := range members {
				for _, m := range ms {
					applyGroup(a, groups.Event{Group: group, Member: m}, journal)
				}
			}
		}),
		dump: func(a *Adaptive) any {
			members := make(map[string][]string)
			for _, g := range a.c.Groups.Groups() {
				members[g] = a.c.Groups.Members(g)
			}
			return members
		},
	},

	// Scores are max-wins on the score; the sample count adds for an
	// event (evidence accumulates across the fleet, and a merged score
	// past the block threshold blocks locally) but is max-wins for a
	// section entry, which carries totals.
	{
		name: KindScore, section: "scores",
		has: func(c *Components) bool { return c.Scorer != nil },
		tap: func(a *Adaptive) {
			// Engine.SetJournal takes both of the scorer's taps at once;
			// the profile row has none of its own.
			a.c.Scorer.SetJournal(
				func(ev adaptive.ScoreEvent) { a.append(KindScore, ev) },
				func(cp adaptive.ProfileCheckpoint) { a.append(KindProfile, cp) })
		},
		record: on(func(a *Adaptive, ev adaptive.ScoreEvent, journal func(any)) {
			if a.c.Scorer.ApplyScore(ev) {
				took(ev, journal, &a.restored.Scores)
			}
		}),
		state: on(func(a *Adaptive, scores []adaptive.ScoreEvent, journal func(any)) {
			for _, ev := range scores {
				if a.c.Scorer.RestoreScore(ev) {
					took(ev, journal, &a.restored.Scores)
				}
			}
		}),
		dump: func(a *Adaptive) any { return a.c.Scorer.Scores() },
	},
	{
		name: KindProfile, section: "profiles",
		has:    func(c *Components) bool { return c.Scorer != nil },
		record: on(applyProfile),
		state: on(func(a *Adaptive, profiles []adaptive.ProfileCheckpoint, journal func(any)) {
			for _, cp := range profiles {
				applyProfile(a, cp, journal)
			}
		}),
		dump: func(a *Adaptive) any { return a.c.Scorer.Profiles() },
	},
}

// applyBlock: a peer's block merges later-deadline-wins (permanent is
// latest) and its unblock applies as sent; a block already past its
// deadline is dropped either way, not resurrected.
func applyBlock(a *Adaptive, ev netblock.Event, journal func(any)) {
	live := ev.Unblock || ev.Expiry.IsZero() || a.c.Clock().Before(ev.Expiry)
	switch {
	case journal != nil:
		if live && a.c.Blocks.ApplyEvent(ev) {
			journal(ev)
		}
	case ev.Unblock:
		a.c.Blocks.Unblock(ev.Addr)
	case live:
		a.c.Blocks.BlockUntil(ev.Addr, ev.Expiry)
		a.restored.Blocks++
	default:
		a.restored.ExpiredBlocks++
	}
}

// applyThreat: a peer's transition merges max-wins — it only ever
// raises the level; de-escalation stays a local decision.
func applyThreat(a *Adaptive, tr ids.Transition, journal func(any)) {
	if journal == nil {
		a.c.Threat.Restore(tr.To, append(a.c.Threat.History(), tr))
		a.restored.ThreatLevel = tr.To.String()
	} else if merged, ok := a.c.Threat.Merge(tr); ok {
		journal(merged)
	}
}

// applyGroup: a peer's adds and removes apply as sent (add-heavy
// blacklists converge; a concurrent add/remove resolves by arrival
// order).
func applyGroup(a *Adaptive, ev groups.Event, journal func(any)) {
	switch {
	case journal != nil:
		if a.c.Groups.ApplyEvent(ev) {
			journal(ev)
		}
	case ev.Remove:
		a.c.Groups.Remove(ev.Group, ev.Member)
	default:
		a.c.Groups.Add(ev.Group, ev.Member)
		a.restored.GroupMembers++
	}
}

// applyProfile: the better-trained checkpoint wins outright, which is
// idempotent, so one rule serves replay, records and snapshots.
func applyProfile(a *Adaptive, cp adaptive.ProfileCheckpoint, journal func(any)) {
	if a.c.Scorer.ApplyProfile(cp) {
		took(cp, journal, &a.restored.Profiles)
	}
}

// run applies one decoded record or section of kind k. A peer's is
// journaled under the kind's name without touching the mirror — that is
// the replication loop-breaker — and run returns how many changes that
// was.
func (a *Adaptive) run(k *kind, mutate func(*Adaptive, func(any)), remote bool) (journaled int) {
	if !remote {
		mutate(a, nil)
		return 0
	}
	mutate(a, func(v any) {
		if a.store != nil {
			if err := a.store.Append(k.name, v); err != nil {
				a.journalErrors.Add(1)
			}
		}
		journaled++
	})
	return journaled
}

// applyRecord applies one record by its kind's rule — replayed from the
// WAL, or merged from a peer (remote) — and reports whether a merge
// changed local state. Unknown kinds (a newer version may have written
// them) and kinds whose component is not wired are skipped. A malformed
// payload is an error: the frame's CRC said these bytes are what was
// written, and the cluster counts it against the sending peer.
func (a *Adaptive) applyRecord(rec Record, remote bool) (bool, error) {
	for i := range kinds {
		k := &kinds[i]
		if k.name != rec.Kind || !k.has(&a.c) {
			continue
		}
		mutate, err := k.record(rec.Data)
		if err != nil && remote {
			return false, fmt.Errorf("statestore: remote %s record: %w", rec.Kind, err)
		} else if err != nil {
			return false, fmt.Errorf("statestore: record %d (%s): %w", rec.Seq, rec.Kind, err)
		}
		return a.run(k, mutate, remote) > 0, nil
	}
	return false, nil
}

// ApplyRemote merges one record replicated from another node into the
// live components and reports whether local state changed. Changed
// state is journaled locally (so it survives a restart) but never
// echoed to the mirror.
func (a *Adaptive) ApplyRemote(rec Record) (bool, error) { return a.applyRecord(rec, true) }

// applySnapshot applies every wired kind's section of a snapshot — the
// node's own, or a peer's (remote) — and returns how many changes were
// journaled. Every section is decoded before any is applied, so a
// malformed snapshot changes nothing.
func (a *Adaptive) applySnapshot(snapshot []byte, remote bool) (int, error) {
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(snapshot, &sections); err != nil {
		return 0, err
	}
	mutations := make([]func(*Adaptive, func(any)), len(kinds))
	for i, k := range kinds {
		if data, ok := sections[k.section]; ok && k.has(&a.c) {
			var err error
			if mutations[i], err = k.state(data); err != nil {
				return 0, fmt.Errorf("%s section: %w", k.section, err)
			}
		}
	}
	journaled := 0
	for i, mutate := range mutations {
		if mutate != nil {
			journaled += a.run(&kinds[i], mutate, remote)
		}
	}
	return journaled, nil
}

// ApplyRemoteSnapshot merges a peer's full state snapshot, journaling
// what changed like ApplyRemote. Returns how many mutations changed
// local state.
func (a *Adaptive) ApplyRemoteSnapshot(data []byte) (int, error) {
	applied, err := a.applySnapshot(data, true)
	if err != nil {
		return 0, fmt.Errorf("statestore: remote snapshot: %w", err)
	}
	return applied, nil
}

// StateSnapshot marshals the full live adaptive state — for compaction,
// and what a node sends to a peer that fell behind the replication log
// horizon: one JSON object with a member per wired kind, empty sections
// left out.
func (a *Adaptive) StateSnapshot() ([]byte, error) {
	buf := []byte{'{'}
	for _, k := range kinds {
		if !k.has(&a.c) {
			continue
		}
		data, err := json.Marshal(k.dump(a))
		if err != nil {
			return nil, err
		}
		if s := string(data); s == "null" || s == "[]" || s == "{}" {
			continue
		}
		if len(buf) > 1 {
			buf = append(buf, ',')
		}
		buf = append(buf, `"`+k.section+`":`...)
		buf = append(buf, data...)
	}
	return append(buf, '}'), nil
}
