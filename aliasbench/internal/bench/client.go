package bench

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"

	"repro/internal/service"
)

// NewService builds the service the way cmd/aliasd runs with no flags:
// GOMAXPROCS query workers (the Config zero value would run sequentially)
// and no store.
func NewService() *service.Service {
	return service.New(service.Config{Parallel: -1})
}

// Client drives an http.Handler in process from one goroutine, one request
// at a time. The response body lands in a buffer that every request reuses,
// so the client's own allocations stay small and constant per request.
type Client struct {
	h    http.Handler
	sink sink
	rd   bytes.Reader
}

// NewClient returns a client of h.
func NewClient(h http.Handler) *Client {
	return &Client{h: h, sink: sink{hdr: http.Header{}}}
}

// Do sends one request and returns its status and body. The body is valid
// until the next call.
func (c *Client) Do(method, target string, body []byte) (int, []byte, error) {
	c.rd.Reset(body)
	req, err := http.NewRequestWithContext(context.Background(), method, target, &c.rd)
	if err != nil {
		return 0, nil, err
	}
	c.sink.reset()
	c.h.ServeHTTP(&c.sink, req)
	if c.sink.code == 0 {
		c.sink.code = http.StatusOK
	}
	return c.sink.code, c.sink.body.Bytes(), nil
}

// Query sends one POST /v1/query and returns its status and body.
func (c *Client) Query(body []byte) (int, []byte, error) {
	return c.Do(http.MethodPost, "/v1/query", body)
}

// Upload registers m with a synchronous POST /v1/modules.
func (c *Client) Upload(m *Module) error {
	target := "/v1/modules?format=ir&name=" + url.QueryEscape(m.Name)
	code, body, err := c.Do(http.MethodPost, target, []byte(m.Src))
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("uploading %s: status %d: %s", m.Name, code, bytes.TrimSpace(body))
	}
	return nil
}

// sink is a reusable http.ResponseWriter.
type sink struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (s *sink) reset() {
	clear(s.hdr)
	s.code = 0
	s.body.Reset()
}

func (s *sink) Header() http.Header { return s.hdr }

func (s *sink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}

func (s *sink) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return s.body.Write(p)
}
