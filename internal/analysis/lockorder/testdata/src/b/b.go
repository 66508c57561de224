package b

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

type S struct {
	a A
	b B
}

// Consistent order everywhere (a before b): acyclic, nothing reported.
func (s *S) one() {
	s.a.mu.Lock()
	defer s.a.mu.Unlock()
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
}

func (s *S) two() {
	s.a.mu.Lock()
	s.b.mu.Lock()
	s.b.mu.Unlock()
	s.a.mu.Unlock()
}

// takeA holds a.mu by defer: the unlock runs at its return. relockLocked
// hands the caller's a.mu off and takes it back through takeA twice — no
// acquisition there happens while a.mu is still held, so relockCaller
// contributes no self-edge.
func (s *S) takeA() {
	s.a.mu.Lock()
	defer s.a.mu.Unlock()
}

func (s *S) relockLocked() {
	s.a.mu.Unlock()
	s.takeA()
	s.takeA()
	s.a.mu.Lock()
}

func (s *S) relockCaller() {
	s.a.mu.Lock()
	s.relockLocked()
	s.a.mu.Unlock()
}
