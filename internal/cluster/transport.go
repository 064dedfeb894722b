package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
)

func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encode failed", http.StatusInternalServerError)
		return
	}
	w.Write(b)
}

// ReplicatePath is the HTTP path peers push replication batches to.
const ReplicatePath = "/gaa/replicate"

// maxPushBody bounds one replication push: generous for maxBatch
// journal records plus a snapshot, small enough that a lying peer
// cannot balloon the receiver's memory.
const maxPushBody = 8 << 20

// Transport delivers one framed batch to a peer and returns the raw
// ack body. Implementations must honor ctx (the push timeout, or
// Stop) — a hung peer is the main thing the pusher defends against.
type Transport interface {
	Send(ctx context.Context, peerURL string, frames []byte) ([]byte, error)
}

// HTTPTransport pushes batches with POST peerURL+ReplicatePath.
type HTTPTransport struct {
	client *http.Client
}

// NewHTTPTransport returns an HTTP transport; nil client uses
// http.DefaultClient (per-push deadlines come from the context).
func NewHTTPTransport(client *http.Client) *HTTPTransport {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPTransport{client: client}
}

// Send implements Transport.
func (t *HTTPTransport) Send(ctx context.Context, peerURL string, frames []byte) ([]byte, error) {
	url := strings.TrimSuffix(peerURL, "/") + ReplicatePath
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(frames))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: peer %s: %s", peerURL, resp.Status)
	}
	return body, nil
}

// Handler returns the receiver endpoint to serve at ReplicatePath. A
// panic while applying a batch is recovered into a 500 — a lying peer
// must not take the serving process down.
func (n *Node) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				n.panicsRecovered.Add(1)
				http.Error(w, "replication apply failed", http.StatusInternalServerError)
			}
		}()
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxPushBody))
		if err != nil {
			http.Error(w, "read failed", http.StatusBadRequest)
			return
		}
		ack, err := n.Receive(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, ack)
	})
}

// LoopTransport is an in-process transport for tests and simulated
// campaigns: peer URLs map to registered handlers, and links can be
// cut and healed to simulate network partitions — per destination
// (Cut: everyone loses the peer) or per direction pair (CutPair via a
// Bind-tagged sender: an asymmetric or clean two-sided partition). It
// is safe for concurrent use.
type LoopTransport struct {
	mu       sync.Mutex
	handlers map[string]func([]byte) ([]byte, error)
	cut      map[string]bool
	cutPair  map[[2]string]bool
	// Hang, when set for a URL, makes Send block until ctx expires —
	// the pathological slow peer.
	hang map[string]bool
}

// NewLoopTransport returns an empty loop transport.
func NewLoopTransport() *LoopTransport {
	return &LoopTransport{
		handlers: make(map[string]func([]byte) ([]byte, error)),
		cut:      make(map[string]bool),
		cutPair:  make(map[[2]string]bool),
		hang:     make(map[string]bool),
	}
}

// Register binds a node to a URL: pushes sent to url are applied by
// the node's Receive.
func (t *LoopTransport) Register(url string, n *Node) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[url] = func(frames []byte) ([]byte, error) {
		ack, err := n.Receive(frames)
		if err != nil {
			return nil, err
		}
		return json.Marshal(ack)
	}
}

// RegisterFunc binds a raw handler to a URL (corrupt/lying-peer tests).
func (t *LoopTransport) RegisterFunc(url string, fn func([]byte) ([]byte, error)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[url] = fn
}

// Cut severs the link to url: sends fail immediately, like a refused
// connection.
func (t *LoopTransport) Cut(url string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cut[url] = true
}

// Heal restores the link to url.
func (t *LoopTransport) Heal(url string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.cut, url)
	delete(t.hang, url)
}

// Hang makes sends to url block until their context expires — the
// slow-peer failure mode, distinct from Cut's fast failure.
func (t *LoopTransport) Hang(url string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hang[url] = true
}

// CutPair severs both directions between the two URLs; other links
// are untouched. Only Bind-tagged senders observe pair cuts.
func (t *LoopTransport) CutPair(a, b string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cutPair[[2]string{a, b}] = true
	t.cutPair[[2]string{b, a}] = true
}

// HealPair restores both directions between the two URLs.
func (t *LoopTransport) HealPair(a, b string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.cutPair, [2]string{a, b})
	delete(t.cutPair, [2]string{b, a})
}

// Bind returns a sender view tagged with self's URL, so pair cuts
// (CutPair) apply to its sends. Untagged Send ignores pair cuts.
func (t *LoopTransport) Bind(self string) Transport {
	return boundLoop{t: t, self: self}
}

type boundLoop struct {
	t    *LoopTransport
	self string
}

func (b boundLoop) Send(ctx context.Context, peerURL string, frames []byte) ([]byte, error) {
	return b.t.send(ctx, b.self, peerURL, frames)
}

// Send implements Transport.
func (t *LoopTransport) Send(ctx context.Context, peerURL string, frames []byte) ([]byte, error) {
	return t.send(ctx, "", peerURL, frames)
}

func (t *LoopTransport) send(ctx context.Context, from, peerURL string, frames []byte) ([]byte, error) {
	t.mu.Lock()
	h, ok := t.handlers[peerURL]
	isCut, isHang := t.cut[peerURL], t.hang[peerURL]
	if from != "" && t.cutPair[[2]string{from, peerURL}] {
		isCut = true
	}
	t.mu.Unlock()
	if isHang {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if isCut {
		return nil, fmt.Errorf("cluster: link to %s cut", peerURL)
	}
	if !ok {
		return nil, fmt.Errorf("cluster: no handler for %s", peerURL)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return h(frames)
}
