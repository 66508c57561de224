// Package network is a minimal stub of the real internal/network
// surface.
package network

type Class uint8

const (
	ClassRequest Class = iota
	ClassReply
)

type Message struct {
	From   int
	Arrive int64
}

type Endpoint struct{}

func (e *Endpoint) Send(to, typ int, class Class, data []byte) {}
func (e *Endpoint) Recv(class Class) Message                   { return Message{} }
func (e *Endpoint) RecvRaw(class Class) Message                { return Message{} }
func (e *Endpoint) TryRecvRaw(class Class) (Message, bool)     { return Message{}, false }
func (e *Endpoint) Ready(class Class) <-chan struct{}          { return nil }
