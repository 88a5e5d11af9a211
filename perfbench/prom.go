package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// scrape is one Prometheus text exposition: sample value by full series
// name, labels included exactly as rendered (`name{k="v"}`).
type scrape map[string]float64

// parseExposition validates an exposition with the same checker the
// daemon's CI scrape uses, then indexes its samples.
func parseExposition(data []byte) (scrape, error) {
	if _, err := obs.ValidateExposition(bytes.NewReader(data)); err != nil {
		return nil, fmt.Errorf("invalid exposition: %w", err)
	}
	s := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Label values may hold spaces ("POST /v1/sessions"); the value
		// is the last field.
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, err
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// scrapeURL fetches and parses a /metrics endpoint.
func scrapeURL(ctx context.Context, hc *http.Client, url string) (scrape, error) {
	body, err := getBody(ctx, hc, url)
	if err != nil {
		return nil, err
	}
	return parseExposition(body)
}

// delta returns later minus s for every series of later (series absent
// from s count from zero). Only counters and histogram sums/counts are
// meaningful as deltas; gauges are passed through as differences too.
func (s scrape) delta(later scrape) scrape {
	d := scrape{}
	for k, v := range later {
		d[k] = v - s[k]
	}
	return d
}

// sum adds every series of the family whose labels contain all the given
// label pairs (`route="GET /metrics"`); with no pairs, every series.
func (s scrape) sum(family string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		name, lbl, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// histMeanMS is a histogram family's mean observation in milliseconds
// over the scraped interval, for the series matching labels.
func (s scrape) histMeanMS(family string, labels ...string) float64 {
	return 1000 * ratio(s.sum(family+"_sum", labels...), s.sum(family+"_count", labels...))
}
