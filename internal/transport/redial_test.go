package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"datablinder/internal/wirefmt"
)

// rawPeer is the server end of one socket, spoken by hand so a test can
// misbehave at exact points of the exchange.
type rawPeer struct {
	conn  net.Conn
	br    *bufio.Reader
	table *wireTable
}

// answerHello negotiates the socket like a real server would.
func answerHello(conn net.Conn) (*rawPeer, bool) {
	br := bufio.NewReader(conn)
	table, err := acceptHello(conn, br)
	if err != nil {
		return nil, false
	}
	return &rawPeer{conn: conn, br: br, table: table}, true
}

// readCall reads one request frame.
func (p *rawPeer) readCall() (uint64, parsedCall, error) {
	body, err := readWireFrame(p.br)
	if err != nil {
		return 0, parsedCall{}, err
	}
	r := wirefmt.NewReader(body)
	r.Byte() // kind
	id := r.Uvarint()
	call, err := parseCall(r, p.table)
	return id, call, err
}

// reply writes an ok result with a JSON payload.
func (p *rawPeer) reply(id uint64, payload []byte) error {
	buf := binary.AppendUvarint(append(newWireFrameBuf(), wireKindResp), id)
	frame, err := finishWireFrame(appendResultOK(buf, encJSON, payload))
	if err != nil {
		return err
	}
	_, err = p.conn.Write(frame)
	return err
}

// TestCallReplaysOnceAfterMidFlightDeath kills the server side of the
// socket after the request frame is already written but before any reply,
// with a healthy server behind the same address for the redial. The call
// must succeed transparently: the client redials the slot and replays
// exactly the failed call.
func TestCallReplaysOnceAfterMidFlightDeath(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	served := make(chan int, 2)
	go func() {
		// First connection: swallow one request and drop the socket —
		// a crash with the call in flight.
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if p, ok := answerHello(conn); ok {
			if _, _, err := p.readCall(); err == nil {
				served <- 1
			}
		}
		conn.Close()

		// Second connection (the redial): answer properly.
		conn, err = ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		p, ok := answerHello(conn)
		if !ok {
			return
		}
		id, _, err := p.readCall()
		if err != nil {
			return
		}
		served <- 2
		p.reply(id, []byte(`{"ok":true}`))
		// Hold the socket open so the client can read the reply.
		time.Sleep(200 * time.Millisecond)
	}()

	c, err := Dial(ln.Addr().String(), DialOptions{PoolSize: 1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var reply struct {
		OK bool `json:"ok"`
	}
	if err := c.Call(context.Background(), "svc", "echo", map[string]int{"x": 1}, &reply); err != nil {
		t.Fatalf("call across mid-flight socket death: %v", err)
	}
	if !reply.OK {
		t.Fatal("reply not decoded after replay")
	}
	if got := len(served); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (original + one replay)", got)
	}
}

// TestCallSurfacesOriginalErrorWhenRedialFails tears the server down
// entirely after the request is in flight: the replay's redial cannot
// connect, and the caller must see the original socket failure, not a
// dial error.
func TestCallSurfacesOriginalErrorWhenRedialFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if _, ok := answerHello(conn); !ok {
			return
		}
		accepted <- conn
	}()

	c, err := Dial(ln.Addr().String(), DialOptions{PoolSize: 1, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn := <-accepted
	ln.Close() // no redial target

	done := make(chan error, 1)
	go func() {
		done <- c.Call(context.Background(), "svc", "m", nil, nil)
	}()
	// Let the request frame land, then kill the socket mid-flight.
	time.Sleep(100 * time.Millisecond)
	conn.Close()

	err = <-done
	if err == nil {
		t.Fatal("call must fail when both the socket and the redial die")
	}
}
