package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"datablinder/internal/wirefmt"
)

func TestFrameRoundTripQuick(t *testing.T) {
	// Property: any request frame reads back identically, whether its
	// method is named inline or by table id.
	table := wireTestTable(t)
	f := func(id uint64, name string, byID bool, enc uint8, payload []byte) bool {
		enc %= encBatch + 1
		if byID {
			name = table.names[int(id%uint64(len(table.names)))]
		} else if _, ok := table.ids[name]; !ok && enc == encTyped {
			// A typed call must name a negotiated method.
			enc = encJSON
		}
		buf := binary.AppendUvarint(append(newWireFrameBuf(), wireKindReq), id)
		frame, err := finishWireFrame(appendCall(buf, table, name, enc, payload))
		if err != nil {
			return false
		}
		body, err := readWireFrame(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			return false
		}
		r := wirefmt.NewReader(body)
		if r.Byte() != wireKindReq || r.Uvarint() != id {
			return false
		}
		call, err := parseCall(r, table)
		return err == nil && r.Finish() == nil &&
			call.name == name && call.enc == enc && bytes.Equal(call.payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	buf := append(newWireFrameBuf(), make([]byte, MaxFrameSize+1)...)
	if _, err := finishWireFrame(buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("finishWireFrame(oversize) = %v", err)
	}
	// A header that promises too much is rejected on read.
	hdr := binary.AppendUvarint(nil, MaxFrameSize+1)
	if _, err := readWireFrame(bufio.NewReader(bytes.NewReader(hdr))); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("readWireFrame(oversize header) = %v", err)
	}
}

func TestClientSurvivesServerRestart(t *testing.T) {
	// A cloud node restart (new listener on the same address) must not
	// permanently break a pooled client: calls fail while the server is
	// down and succeed again after reconnection.
	mux := testMux()
	srv := NewServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr, DialOptions{PoolSize: 1, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	var reply echoReply
	if err := client.Call(ctx, "test", "echo", echoArgs{Msg: "before"}, &reply); err != nil {
		t.Fatalf("call before restart: %v", err)
	}
	srv.Close()

	// While down: calls fail (possibly several, as the pool reconnects).
	sawFailure := false
	for i := 0; i < 3; i++ {
		if err := client.Call(ctx, "test", "echo", echoArgs{Msg: "down"}, &reply); err != nil {
			sawFailure = true
			break
		}
	}
	if !sawFailure {
		t.Fatal("no failure while server down")
	}

	// Restart on the same address.
	srv2 := NewServer(mux)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("restart listen: %v", err)
	}
	defer srv2.Close()

	// The client reconnects lazily: allow a few attempts.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := client.Call(ctx, "test", "echo", echoArgs{Msg: "after"}, &reply)
		if err == nil {
			if reply.Msg != "after" {
				t.Fatalf("reply = %q", reply.Msg)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
