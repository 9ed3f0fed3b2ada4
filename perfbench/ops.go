package main

import (
	"fmt"
	"strconv"

	"turboflux/internal/stream"
)

type opKind uint8

const (
	opFrame opKind = iota
	opRegister
	opUnregister
)

// op is one request on the writer connection, kept so the in-process
// passes replay exactly what the server received.
type op struct {
	kind  opKind
	wire  []byte          // request bytes as sent
	ups   []stream.Update // frame: the generated updates (the traced pass decodes wire instead)
	first int             // frame: global index of its first update
	pat   pattern         // register/unregister
}

// opSource yields the deterministic request sequence of a run: update
// frames from the generator, with a churn cycle after every spec.Churn
// frames.
type opSource struct {
	in      *inputs
	frames  int
	updates int
	queue   []op
	buf     []byte
}

func newOpSource(in *inputs) *opSource { return &opSource{in: in} }

func (s *opSource) next() (op, error) {
	if len(s.queue) > 0 {
		o := s.queue[0]
		s.queue = s.queue[1:]
		return o, nil
	}
	spec := s.in.spec
	n := spec.Frame
	if n == 0 {
		n = 1
	}
	o := op{kind: opFrame, first: s.updates, ups: make([]stream.Update, n)}
	for i := range o.ups {
		o.ups[i] = s.in.gen.next()
	}
	if spec.Frame == 0 {
		u := o.ups[0]
		o.wire = []byte(fmt.Sprintf("%s %d %d %d\n", u.Op, u.Edge.From, u.Edge.Label, u.Edge.To))
	} else {
		body := s.buf[:0]
		var err error
		for _, u := range o.ups {
			if body, err = stream.AppendBinary(body, u); err != nil {
				return op{}, err
			}
		}
		s.buf = body
		o.wire = append([]byte("BATCHB "+strconv.Itoa(len(body))+"\n"), body...)
	}
	s.frames++
	s.updates += n
	if spec.Churn > 0 && s.frames%spec.Churn == 0 {
		ch := s.in.churn
		for i := len(ch) - 1; i >= 0; i-- {
			s.queue = append(s.queue, op{kind: opUnregister, pat: ch[i], wire: []byte("UNREGISTER " + ch[i].Name + "\n")})
		}
		for _, p := range ch {
			s.queue = append(s.queue, op{kind: opRegister, pat: p, wire: []byte("REGISTER " + p.Name + " " + p.Text + "\n")})
		}
	}
	return o, nil
}
