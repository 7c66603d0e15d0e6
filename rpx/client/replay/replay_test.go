package replay

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/region"
	"repro/internal/wire"
)

// scripted serves one request over a net.Pipe: it checks the request's type
// and payload, then answers with the given reply. The returned channel
// yields the server side's verdict once it has replied.
func scripted(t *testing.T, wantTyp byte, wantPayload []byte, replyTyp byte, reply []byte) (net.Conn, *bufio.Reader, <-chan error) {
	t.Helper()
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close(); server.Close() })
	done := make(chan error, 1)
	go func() {
		typ, payload, err := wire.ReadMessage(server, wire.DefaultMaxPayload)
		switch {
		case err != nil:
			done <- err
			return
		case typ != wantTyp || !bytes.Equal(payload, wantPayload):
			done <- errors.New("server saw a different request than the one sent")
			return
		}
		done <- wire.WriteMessage(server, replyTyp, reply, wire.DefaultMaxPayload)
	}()
	return client, bufio.NewReader(client), done
}

const timeout = 5 * time.Second

var hello = wire.MarshalHello(wire.Hello{W: 16, H: 16, Format: frame.Gray8})

func TestHandshake(t *testing.T) {
	t.Run("ack", func(t *testing.T) {
		want := wire.HelloAck{SessionID: 42, MaxPayload: 1 << 20}
		raw := wire.MarshalHelloAck(want)
		conn, br, done := scripted(t, wire.MsgHello, hello, wire.MsgHelloAck, raw)
		ack, payload, err := Handshake(conn, br, hello, wire.DefaultMaxPayload, timeout)
		if err != nil {
			t.Fatal(err)
		}
		if ack != want || !bytes.Equal(payload, raw) {
			t.Fatalf("Handshake = %+v %x, want %+v %x", ack, payload, want, raw)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
	t.Run("error", func(t *testing.T) {
		conn, br, done := scripted(t, wire.MsgHello, hello, wire.MsgError, wire.MarshalError(wire.CodeGeometry, "too big"))
		_, _, err := Handshake(conn, br, hello, wire.DefaultMaxPayload, timeout)
		var re *wire.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeGeometry || re.Message != "too big" {
			t.Fatalf("Handshake = %v, want a wrapped *wire.RemoteError{CodeGeometry}", err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
	t.Run("unexpected", func(t *testing.T) {
		conn, br, done := scripted(t, wire.MsgHello, hello, wire.MsgAck, nil)
		_, _, err := Handshake(conn, br, hello, wire.DefaultMaxPayload, timeout)
		var re *wire.RemoteError
		if err == nil || errors.As(err, &re) {
			t.Fatalf("Handshake on an ACK reply = %v, want a non-remote error", err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
	// An acknowledgment from a server speaking a retired revision fails
	// with the typed *wire.VersionError.
	t.Run("retired-revision", func(t *testing.T) {
		// Revision 5's acknowledgment is one byte longer (a codec byte).
		raw := append(wire.MarshalHelloAck(wire.HelloAck{SessionID: 1, MaxPayload: 1 << 20}), 0)
		binary.LittleEndian.PutUint32(raw[12:], 5)
		conn, br, done := scripted(t, wire.MsgHello, hello, wire.MsgHelloAck, raw)
		_, _, err := Handshake(conn, br, hello, wire.DefaultMaxPayload, timeout)
		var ve *wire.VersionError
		if !errors.As(err, &ve) || ve.Got != 5 {
			t.Fatalf("Handshake on a v5 ack = %v, want *wire.VersionError{Got: 5}", err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
}

var labels = wire.MarshalLabels(region.List{{X: 0, Y: 0, W: 16, H: 16, Stride: 2, Skip: 1}})

func TestInstallLabels(t *testing.T) {
	t.Run("ack", func(t *testing.T) {
		conn, br, done := scripted(t, wire.MsgSetLabels, labels, wire.MsgAck, nil)
		if err := InstallLabels(conn, br, labels, wire.DefaultMaxPayload, timeout); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
	t.Run("error", func(t *testing.T) {
		conn, br, done := scripted(t, wire.MsgSetLabels, labels, wire.MsgError, wire.MarshalError(wire.CodeBadRequest, "bad labels"))
		err := InstallLabels(conn, br, labels, wire.DefaultMaxPayload, timeout)
		var re *wire.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeBadRequest {
			t.Fatalf("InstallLabels = %v, want a wrapped *wire.RemoteError{CodeBadRequest}", err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
	t.Run("unexpected", func(t *testing.T) {
		conn, br, done := scripted(t, wire.MsgSetLabels, labels, wire.MsgStatsAck, []byte("{}"))
		err := InstallLabels(conn, br, labels, wire.DefaultMaxPayload, timeout)
		var re *wire.RemoteError
		if err == nil || errors.As(err, &re) {
			t.Fatalf("InstallLabels on a STATS_ACK reply = %v, want a non-remote error", err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
}
