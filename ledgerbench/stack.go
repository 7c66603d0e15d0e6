package main

import (
	"context"
	"net"
	"time"

	"repro/internal/gateway"
	"repro/internal/server"
	"repro/rpx/client"
)

// stack is rpxd with rpxgw in front of it, both in-process on loopback.
type stack struct {
	srv     *server.TCPServer
	gw      *gateway.Gateway
	rpxd    string // backend address, for the direct legs
	rpxgw   string // gateway address
	serving chan struct{}
}

func startStack() (*stack, error) {
	srv := server.NewTCPServer(server.NewManager(server.Config{MaxSessions: 16}), server.TCPConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &stack{srv: srv, rpxd: ln.Addr().String(), serving: make(chan struct{}, 2)}
	go func() { srv.Serve(ln); st.serving <- struct{}{} }()
	gw, err := gateway.New(gateway.Config{
		Backends: []gateway.Backend{{Addr: st.rpxd}},
		Health:   gateway.WatcherConfig{Interval: time.Hour},
	})
	if err != nil {
		st.close()
		return nil, err
	}
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.gw, st.rpxgw = gw, gln.Addr().String()
	go func() { gw.Serve(gln); st.serving <- struct{}{} }()
	return st, nil
}

// close drains the gateway, then the backend, and waits for both Serve
// loops to return.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	running := 1
	if st.gw != nil {
		st.gw.Shutdown(ctx)
		running++
	}
	st.srv.Shutdown(ctx)
	for ; running > 0; running-- {
		<-st.serving
	}
}

// serverCapture reads the backend's STATS through s and returns its mean
// capture latency and the counters that mark failed operations.
func serverCapture(s *client.Session) (captureMs float64, dropped, backlog int64, err error) {
	snap, err := s.ServerStats()
	if err != nil {
		return 0, 0, 0, err
	}
	if h := snap.OpLatency[server.OpCapture.String()]; h.Count > 0 {
		captureMs = float64(h.SumNanos) / float64(h.Count) / 1e6
	}
	return captureMs, snap.StreamDropped, snap.BacklogRejects, nil
}
