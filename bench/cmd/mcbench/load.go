package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// loader is the closed-loop load generator: one HTTP client whose
// connection pool is capped at the workload's client count.
type loader struct {
	hc  *http.Client
	url string
}

func newLoader(url string, conns int) *loader {
	return &loader{url: url, hc: &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (l *loader) close() { l.hc.CloseIdleConnections() }

// result is one completed request.
type result struct {
	op      op
	start   time.Time
	latency time.Duration // send to last response byte
	ttfl    time.Duration // send to the first complete JSONL line
	cells   int           // cells answered without an error line
	body    []byte        // the response, kept only when asked for
	err     error         // transport error, non-2xx status, error line or short stream
}

func (r result) end() time.Time { return r.start.Add(r.latency) }

// do sends one op and reads its response line by line, timing the
// first line and the whole body.
func (l *loader) do(ctx context.Context, o op, keep bool) result {
	path := "/v1/jobs"
	if o.sweep != nil {
		path = "/v1/sweep"
	}
	r := result{op: o}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.url+path, bytes.NewReader(o.body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	r.start = time.Now()
	resp, err := l.hc.Do(req)
	if err != nil {
		r.latency = time.Since(r.start)
		r.err = err
		return r
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var body bytes.Buffer
	lines, bad := 0, 0
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 && line[len(line)-1] == '\n' {
			if lines == 0 {
				r.ttfl = time.Since(r.start)
			}
			lines++
			if bytes.Contains(line, []byte(`"error":`)) {
				bad++
			}
		}
		if keep || resp.StatusCode != http.StatusOK {
			body.Write(line)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			r.latency = time.Since(r.start)
			r.err = rerr
			return r
		}
	}
	r.latency = time.Since(r.start)
	r.body = body.Bytes()
	switch want := o.cells(); {
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("op %d: status %d: %s", o.index, resp.StatusCode, bytes.TrimSpace(r.body))
	case bad > 0:
		r.err = fmt.Errorf("op %d: %d error lines", o.index, bad)
	case lines != want:
		r.err = fmt.Errorf("op %d: %d lines, want %d", o.index, lines, want)
	default:
		r.cells = want
	}
	return r
}

// drive runs a closed loop: each of clients goroutines claims the next
// op index i (counting from 0), sends get(i) and waits for the reply,
// until more(i) reports false. Results come back in op order.
func (l *loader) drive(ctx context.Context, clients int, more func(i int) bool, get func(i int) op, keep func(i int) bool) []result {
	var next atomic.Int64
	per := make([][]result, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if !more(i) {
					return
				}
				per[c] = append(per[c], l.do(ctx, get(i), keep != nil && keep(i)))
			}
		}(c)
	}
	wg.Wait()
	var all []result
	for _, rs := range per {
		all = append(all, rs...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].op.index < all[b].op.index })
	return all
}

// sendAll sends get(0..n-1) with the given concurrency.
func (l *loader) sendAll(ctx context.Context, clients, n int, get func(i int) op, keep bool) []result {
	return l.drive(ctx, clients, func(i int) bool { return i < n }, get, func(int) bool { return keep })
}
