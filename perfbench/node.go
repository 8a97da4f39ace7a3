package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"analogacc/internal/serve"
)

// node is one serve.Server listening on a loopback port.
type node struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
	// store is the job journal path ("" when the node runs jobs in memory).
	store string
}

// startNode builds a server and serves it on 127.0.0.1:<free port>. With
// a tracer, the handler tree is wrapped by the span middleware.
func startNode(cfg serve.Config, t *tracer) (*node, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if t != nil {
		h = handlerSpans(t, h)
	}
	n := &node{
		srv:   srv,
		hs:    &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:   "http://" + ln.Addr().String(),
		done:  make(chan struct{}),
		store: cfg.JobStore,
	}
	go func() {
		defer close(n.done)
		if err := n.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
		}
	}()
	return n, nil
}

// close stops the listener, waits for the serve goroutine, and releases
// the server (job journal fsynced shut).
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	<-n.done
	if cerr := n.srv.Close(); err == nil {
		err = cerr
	}
	return err
}
