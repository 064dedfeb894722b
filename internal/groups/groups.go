// Package groups implements the dynamic group store behind conditions
// like pre_cond_accessid_GROUP and actions like rr_cond_update_log in
// the paper's section 7.2: the "BadGuys" blacklist that grows as attack
// signatures match and that many hosts can share via a system-wide
// policy.
package groups

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
)

// Store is a concurrent-safe named-group membership store.
type Store struct {
	mu      sync.RWMutex
	groups  map[string]map[string]struct{}
	journal func(Event)
}

// Event describes one membership mutation for persistence.
type Event struct {
	// Group and Member identify the membership.
	Group  string `json:"group"`
	Member string `json:"member"`
	// Remove marks a removal instead of an addition.
	Remove bool `json:"remove,omitempty"`
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{groups: make(map[string]map[string]struct{})}
}

// SetJournal installs a hook receiving every effective mutation
// (no-op adds and removes are not journaled), for persistence.
func (s *Store) SetJournal(fn func(Event)) {
	s.mu.Lock()
	s.journal = fn
	s.mu.Unlock()
}

// Add puts member into group, creating the group as needed, and
// reports whether the membership is new.
func (s *Store) Add(group, member string) bool {
	s.mu.Lock()
	g, ok := s.groups[group]
	if !ok {
		g = make(map[string]struct{})
		s.groups[group] = g
	}
	if _, exists := g[member]; exists {
		s.mu.Unlock()
		return false
	}
	g[member] = struct{}{}
	journal := s.journal
	s.mu.Unlock()
	if journal != nil {
		journal(Event{Group: group, Member: member})
	}
	return true
}

// Remove deletes member from group and reports whether it was present.
func (s *Store) Remove(group, member string) bool {
	s.mu.Lock()
	g, ok := s.groups[group]
	if !ok {
		s.mu.Unlock()
		return false
	}
	if _, exists := g[member]; !exists {
		s.mu.Unlock()
		return false
	}
	delete(g, member)
	journal := s.journal
	s.mu.Unlock()
	if journal != nil {
		journal(Event{Group: group, Member: member, Remove: true})
	}
	return true
}

// ApplyEvent applies a replicated membership mutation without
// journaling and reports whether local state changed. The caller
// (statestore.Adaptive.ApplyRemote) journals changed state itself —
// journaling here would echo the record back into the replication
// mirror and loop it around the cluster.
func (s *Store) ApplyEvent(ev Event) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.groups[ev.Group]
	if ev.Remove {
		if !ok {
			return false
		}
		if _, exists := g[ev.Member]; !exists {
			return false
		}
		delete(g, ev.Member)
		return true
	}
	if !ok {
		g = make(map[string]struct{})
		s.groups[ev.Group] = g
	}
	if _, exists := g[ev.Member]; exists {
		return false
	}
	g[ev.Member] = struct{}{}
	return true
}

// Contains reports whether member belongs to group.
func (s *Store) Contains(group, member string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.groups[group][member]
	return ok
}

// Members returns the sorted members of group (empty for an unknown
// group).
func (s *Store) Members(group string) []string {
	s.mu.RLock()
	g := s.groups[group]
	out := make([]string, 0, len(g))
	for m := range g {
		out = append(out, m)
	}
	s.mu.RUnlock()
	sort.Strings(out) // outside the lock: a writer waits on the copy alone
	return out
}

// Groups returns the sorted group names.
func (s *Store) Groups() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.groups))
	for g := range s.groups {
		out = append(out, g)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len returns the number of members of group.
func (s *Store) Len(group string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.groups[group])
}

// Load reads group definitions in htgroup format — "group: member
// member ..." per line, '#' comments — replacing nothing and merging
// into the store.
func (s *Store) Load(r io.Reader) error {
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, members, ok := strings.Cut(text, ":")
		if !ok {
			return fmt.Errorf("line %d: want \"group: members...\"", line)
		}
		name = strings.TrimSpace(name)
		if name == "" {
			return fmt.Errorf("line %d: empty group name", line)
		}
		for _, m := range strings.Fields(members) {
			s.Add(name, m)
		}
	}
	return sc.Err()
}

// Save writes every group in htgroup format, sorted for determinism.
func (s *Store) Save(w io.Writer) error {
	for _, g := range s.Groups() {
		if _, err := fmt.Fprintf(w, "%s: %s\n", g, strings.Join(s.Members(g), " ")); err != nil {
			return err
		}
	}
	return nil
}

// LoadFile merges the groups stored at path; a missing file is not an
// error (the blacklist starts empty).
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Load(f)
}

// SaveFile atomically persists the store to path.
func (s *Store) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
