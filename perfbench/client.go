package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// jobRequest is the POST /v1/jobs body.
type jobRequest struct {
	N                 int      `json:"n"`
	Edges             [][2]int `json:"edges"`
	K                 int      `json:"k"`
	InstanceDependent bool     `json:"instance_dependent,omitempty"`
	Parallel          int      `json:"parallel,omitempty"`
}

// jobSnapshot is the part of the daemon's job snapshot the benchmark
// reads from the terminal event.
type jobSnapshot struct {
	ID     string     `json:"id"`
	State  string     `json:"state"`
	Error  string     `json:"error"`
	Result *jobResult `json:"result"`
}

type jobResult struct {
	Status   int   `json:"status"`
	Solved   bool  `json:"solved"`
	Chi      int   `json:"chi"`
	Coloring []int `json:"coloring"`
}

// outcome is what the client observed for one job.
type outcome struct {
	// submit is the POST /v1/jobs round trip; latency runs from the POST
	// to the result event on the job's event stream.
	submit, latency time.Duration
	snap            jobSnapshot
	err             error
	// rank is the job's place in completion order within its drive.
	rank int
}

// encodeBodies marshals every request up front, so the timed loop sends
// bytes and does no encoding of its own.
func encodeBodies(jobs []Job) ([][]byte, error) {
	bodies := make([][]byte, len(jobs))
	for i, j := range jobs {
		b, err := json.Marshal(jobRequest{
			N: j.N, Edges: j.Edges, K: j.K,
			InstanceDependent: j.InstanceDependent, Parallel: j.Parallel,
		})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// newClient returns an HTTP client that keeps one connection per request
// in flight alive across requests.
func newClient(clients int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * clients,
		DisableCompression:  true,
	}}
}

// drive submits bodies in order from the given number of closed-loop
// clients: each client takes the next job in the list, waits for its
// result, then takes the next. Every completion calls done with the
// number of jobs completed so far, from the completing client's
// goroutine. drive returns when every job has an outcome, with the wall
// time from the first submission to the last result.
func drive(client *http.Client, url string, bodies [][]byte, clients int, done func(completed int)) ([]outcome, time.Duration) {
	out := make([]outcome, len(bodies))
	var next, completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				out[i] = runJob(client, url, bodies[i])
				out[i].rank = int(completed.Add(1)) - 1
				if done != nil {
					done(out[i].rank + 1)
				}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// runJob submits one job and blocks on its event stream until the result
// event arrives.
func runJob(client *http.Client, url string, body []byte) outcome {
	var o outcome
	start := time.Now()
	resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	var ack struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
	resp.Body.Close()
	o.submit = time.Since(start)
	if resp.StatusCode != http.StatusAccepted || err != nil || ack.ID == "" {
		o.err = fmt.Errorf("submit: status %d (decode: %v)", resp.StatusCode, err)
		return o
	}

	resp, err = client.Get(url + "/v1/jobs/" + ack.ID + "/events")
	if err != nil {
		o.err = fmt.Errorf("events %s: %w", ack.ID, err)
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("events %s: status %d", ack.ID, resp.StatusCode)
		return o
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := rd.ReadBytes('\n')
		if len(line) > 0 {
			var ev struct {
				Type string      `json:"type"`
				Job  jobSnapshot `json:"job"`
			}
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				o.err = fmt.Errorf("events %s: %w", ack.ID, jerr)
				return o
			}
			if ev.Type == "result" {
				o.latency = time.Since(start)
				o.snap = ev.Job
				return o
			}
		}
		if err != nil {
			o.err = fmt.Errorf("events %s: stream ended without a result: %w", ack.ID, err)
			return o
		}
	}
}

// errNotFound reports a 404 from getJSON.
var errNotFound = errors.New("not found")

// getJSON fetches url and decodes its JSON body into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("GET %s: %w", url, errNotFound)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
