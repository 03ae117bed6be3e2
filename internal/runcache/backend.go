package runcache

// The backend layers behind the in-memory LRU. A Backend is one persistent
// or remote store for content-addressed results: the disk layer every
// process has used since PR 2, and the HTTP peer layer that lets several
// ascoma-serve workers share one store (melange2-style: the service leans
// on the content-addressable cache, so the cache grows the network legs).
//
// Backends chain: Cache.fill probes them in order and back-fills earlier
// (faster) layers on a hit, so "memory LRU -> disk -> HTTP peer" behaves
// like one tiered store. Every backend validates the embedded key of a
// payload against the requested key, so a renamed file or a confused peer
// can never satisfy the wrong request.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"ascoma"
	"ascoma/internal/stats"
)

// ErrNotFound is returned by Backend.Load when the backend has no entry
// for the key. Any other error is a real failure (corruption, I/O, a peer
// returning garbage) and is reported, not silently treated as a miss.
var ErrNotFound = errors.New("runcache: not found")

// Backend is one layer of the tiered result store behind the memory LRU.
// Implementations must be safe for concurrent use.
type Backend interface {
	// Load returns the result stored under key, or ErrNotFound.
	Load(ctx context.Context, key Key) (*ascoma.Result, error)
	// Store persists the result under key. Failures cost only a future
	// re-simulation, so callers log and continue.
	Store(ctx context.Context, key Key, res *ascoma.Result) error
}

// remoteBackend marks backends that reach outside the process. The peer
// protocol handler (PeerHandler) skips them when answering a fetch, so two
// workers pointing at each other can never recurse.
type remoteBackend interface {
	remote()
}

// diskResult is the wire and disk form of a result. The embedded key
// double-checks that a file renamed or corrupted on disk — or a payload
// served by a confused peer — never satisfies the wrong request.
type diskResult struct {
	Key     Key             `json:"key"`
	ArchID  ascoma.Arch     `json:"archID"`
	Machine *stats.Machine  `json:"machine"`
	Samples []ascoma.Sample `json:"samples,omitempty"`
}

// encodeResult renders the canonical payload for key.
func encodeResult(key Key, res *ascoma.Result) ([]byte, error) {
	return json.Marshal(diskResult{Key: key, ArchID: res.ArchID, Machine: res.Machine, Samples: res.Samples})
}

// decodeResult parses a payload, rejecting key mismatches and machines
// without nodes the same way for every backend.
func decodeResult(key Key, blob []byte, origin string) (*ascoma.Result, error) {
	var d diskResult
	if err := json.Unmarshal(blob, &d); err != nil {
		return nil, fmt.Errorf("runcache: %s: %w", origin, err)
	}
	if d.Key != key || d.Machine == nil || len(d.Machine.Nodes) == 0 {
		return nil, fmt.Errorf("runcache: %s: key mismatch or empty payload", origin)
	}
	return &ascoma.Result{Machine: d.Machine, ArchID: d.ArchID, Samples: d.Samples}, nil
}

// DiskBackend persists results as one JSON file per key in a directory.
// Writes are atomic (temp file + rename), so concurrent writers — even in
// different processes sharing the directory — converge without torn reads:
// a reader sees either no file or one complete payload.
type DiskBackend struct {
	dir string
}

// NewDiskBackend creates dir if needed and returns the backend.
func NewDiskBackend(dir string) (*DiskBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	return &DiskBackend{dir: dir}, nil
}

// Dir returns the backing directory.
func (b *DiskBackend) Dir() string { return b.dir }

func (b *DiskBackend) path(key Key) string {
	return filepath.Join(b.dir, string(key)+".json")
}

// Load reads and validates the entry for key.
func (b *DiskBackend) Load(_ context.Context, key Key) (*ascoma.Result, error) {
	blob, err := os.ReadFile(b.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	return decodeResult(key, blob, b.path(key))
}

// Store persists atomically (temp file + rename) so a crashed or racing
// writer never leaves a torn entry for Load to trip over.
func (b *DiskBackend) Store(_ context.Context, key Key, res *ascoma.Result) error {
	blob, err := encodeResult(key, res)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(b.dir, "tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(blob); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), b.path(key))
}

// HTTPBackend reads and writes a peer worker's cache over the /cache/v1
// protocol (see PeerHandler). Load validates the embedded key of every
// payload, so a misrouted or corrupted response is an error, never a
// wrong hit.
type HTTPBackend struct {
	base   string // e.g. "http://10.0.0.7:8372" — PeerPrefix is appended
	client *http.Client
}

// PeerPrefix is the URL prefix the peer protocol is mounted under on
// every ascoma-serve worker.
const PeerPrefix = "/cache/v1/"

// NewHTTPBackend returns a backend talking to the worker at base (scheme
// + host[:port], no trailing slash needed). A nil client selects
// http.DefaultClient; production deployments should pass one with a
// timeout so a hung peer cannot stall fills forever.
func NewHTTPBackend(base string, client *http.Client) *HTTPBackend {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPBackend{base: strings.TrimSuffix(base, "/"), client: client}
}

func (b *HTTPBackend) remote() {}

func (b *HTTPBackend) url(key Key) string { return b.base + PeerPrefix + string(key) }

// Load fetches the peer's entry for key. A 404 is ErrNotFound; any other
// non-200 status or a key-mismatched payload is a real error.
func (b *HTTPBackend) Load(ctx context.Context, key Key) (*ascoma.Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url(key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body) //ascoma:allow-errdrop drain for keep-alive; the status code already decided the outcome
		return nil, ErrNotFound
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("runcache: peer %s: %s: %s", b.base, resp.Status, bytes.TrimSpace(body))
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return decodeResult(key, blob, "peer "+b.base)
}

// Store pushes the result to the peer.
func (b *HTTPBackend) Store(ctx context.Context, key Key, res *ascoma.Result) error {
	blob, err := encodeResult(key, res)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, b.url(key), bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //ascoma:allow-errdrop drain for keep-alive; the status code already decided the outcome
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("runcache: peer %s: PUT %s", b.base, resp.Status)
	}
	return nil
}

// PeerHandler serves c over the /cache/v1 peer protocol (the handler
// expects the prefix already stripped, so mount it with
// http.StripPrefix(PeerPrefix, ...)):
//
//	GET  /{key}  -> 200 canonical payload | 404
//	PUT  /{key}  <- canonical payload; 204 | 400 on key mismatch
//
// A GET consults only this worker's local layers (memory, the in-flight
// singleflight table, disk) — never its own remote backends — so peers
// pointing at each other cannot loop. A GET that lands while this worker
// is simulating the same key blocks until that fill completes: the
// singleflight guarantee held across workers.
func PeerHandler(c *Cache) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{key}", func(w http.ResponseWriter, r *http.Request) {
		key := Key(r.PathValue("key"))
		res, err := c.Fetch(r.Context(), key)
		if err != nil {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		blob, err := encodeResult(key, res)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(blob) //ascoma:allow-errdrop client write failure is the client's problem
	})
	mux.HandleFunc("PUT /{key}", func(w http.ResponseWriter, r *http.Request) {
		key := Key(r.PathValue("key"))
		blob, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := decodeResult(key, blob, "peer put")
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.Put(key, res)
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}
