package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
	"copydetect/internal/gen"
)

// verdict is a truth-finding result in names only, so results computed
// over differently interned datasets (or decoded from the daemon's
// JSON) compare exactly: one line per copying pair with its direction
// and exact posteriors, and the decided value of every item.
type verdict struct {
	Pairs []string
	Truth map[string]string
}

func fmtProb(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func pairLine(s1, s2, dir string, prIndep, prTo, prFrom float64) string {
	return strings.Join([]string{s1, s2, dir, fmtProb(prIndep), fmtProb(prTo), fmtProb(prFrom)}, "|")
}

// libraryVerdict renders an in-process outcome over ds.
func libraryVerdict(ds *dataset.Dataset, out *fusion.Outcome) verdict {
	v := verdict{Truth: map[string]string{}}
	for _, pr := range out.Copy.CopyingPairs() {
		v.Pairs = append(v.Pairs, pairLine(ds.SourceNames[pr.S1], ds.SourceNames[pr.S2],
			pr.Direction(ds.SourceNames), pr.PrIndep, pr.PrTo, pr.PrFrom))
	}
	sort.Strings(v.Pairs)
	for d, val := range out.Truth {
		if val != dataset.NoValue {
			v.Truth[ds.ItemNames[d]] = ds.ValueNames[d][val]
		}
	}
	return v
}

type copiesBody struct {
	Version   uint64 `json:"version"`
	Algorithm string `json:"algorithm"`
	Converged bool   `json:"converged"`
	Pairs     []struct {
		S1, S2                string
		Direction             string
		PrIndep, PrTo, PrFrom float64
	} `json:"pairs"`
}

type truthBody struct {
	Version   uint64            `json:"version"`
	Converged bool              `json:"converged"`
	Truth     map[string]string `json:"truth"`
}

// daemonVerdict reads a dataset's published copies and truths. It
// returns the round's algorithm so the caller can pick the matching
// batch detector, and fails unless both reads describe the same
// converged version.
func daemonVerdict(c *http.Client, base, name string) (verdict, string, error) {
	url := base + "/v1/datasets/" + name
	var cb copiesBody
	var tb truthBody
	for path, dst := range map[string]any{"/copies": &cb, "/truth": &tb} {
		b, err := mustOK(c, http.MethodGet, url+path, nil)
		if err != nil {
			return verdict{}, "", err
		}
		if err := json.Unmarshal(b, dst); err != nil {
			return verdict{}, "", fmt.Errorf("decode %s%s: %w", name, path, err)
		}
	}
	if !cb.Converged || !tb.Converged || cb.Version != tb.Version {
		return verdict{}, "", wrongf("%s: final reads not converged on one version (copies v%d %t, truth v%d %t)",
			name, cb.Version, cb.Converged, tb.Version, tb.Converged)
	}
	v := verdict{Truth: tb.Truth}
	for _, p := range cb.Pairs {
		v.Pairs = append(v.Pairs, pairLine(p.S1, p.S2, p.Direction, p.PrIndep, p.PrTo, p.PrFrom))
	}
	sort.Strings(v.Pairs)
	return v, cb.Algorithm, nil
}

// diff describes the first difference between two verdicts, or "".
func (v verdict) diff(w verdict) string {
	if len(v.Pairs) != len(w.Pairs) {
		return fmt.Sprintf("%d copying pairs vs %d", len(v.Pairs), len(w.Pairs))
	}
	for i := range v.Pairs {
		if v.Pairs[i] != w.Pairs[i] {
			return fmt.Sprintf("pair %q vs %q", v.Pairs[i], w.Pairs[i])
		}
	}
	if len(v.Truth) != len(w.Truth) {
		return fmt.Sprintf("%d decided items vs %d", len(v.Truth), len(w.Truth))
	}
	for item, val := range v.Truth {
		if w.Truth[item] != val {
			return fmt.Sprintf("item %q: %q vs %q", item, val, w.Truth[item])
		}
	}
	return ""
}

// fingerprint hashes a verdict.
func (v verdict) fingerprint() string {
	h := sha256.New()
	for _, p := range v.Pairs {
		fmt.Fprintln(h, p)
	}
	items := make([]string, 0, len(v.Truth))
	for item := range v.Truth {
		items = append(items, item)
	}
	sort.Strings(items)
	for _, item := range items {
		fmt.Fprintf(h, "%s=%s\n", item, v.Truth[item])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// quality scores detected copying pairs against the planted ones:
// recall over the direct copier-origin pairs, precision over their
// closure (copiers of one origin are not false positives).
func quality(ds *dataset.Dataset, out *fusion.Outcome, genDS *dataset.Dataset, pl *gen.Planted) (precision, recall float64) {
	id := map[string]dataset.SourceID{}
	for s, name := range genDS.SourceNames {
		id[name] = dataset.SourceID(s)
	}
	var found, inClosure, direct int
	for _, pr := range out.Copy.CopyingPairs() {
		a, b := id[ds.SourceNames[pr.S1]], id[ds.SourceNames[pr.S2]]
		found++
		if pl.PairInClique(a, b) {
			inClosure++
		}
		if pl.PairPlanted(a, b) {
			direct++
		}
	}
	if found > 0 {
		precision = float64(inClosure) / float64(found)
	}
	if len(pl.Pairs) > 0 {
		recall = float64(direct) / float64(len(pl.Pairs))
	}
	return precision, recall
}
