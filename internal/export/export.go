// Package export writes derived models and analysis results in the
// interchange formats the PEPA Eclipse plug-in offers: the generator
// matrix in Matrix Market coordinate format (consumable by external
// solvers), the labelled transition system and steady-state vectors as
// CSV, and passage-time CDFs as TSV — everything a downstream user needs
// to take results out of the toolchain.
package export

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/ctmc"
	"repro/internal/pepa/derive"
)

// GeneratorMatrixMarket writes the CTMC generator Q in Matrix Market
// coordinate format (1-based indices, general real matrix).
func GeneratorMatrixMarket(w io.Writer, chain *ctmc.Chain) error {
	if _, err := fmt.Fprintln(w, "%%MatrixMarket matrix coordinate real general"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%% CTMC infinitesimal generator, %d states\n", chain.N); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%d %d %d\n", chain.N, chain.N, chain.Q.NNZ()); err != nil {
		return err
	}
	for i := 0; i < chain.N; i++ {
		var rowErr error
		chain.Q.Row(i, func(j int, v float64) {
			if rowErr != nil {
				return
			}
			_, rowErr = fmt.Fprintf(w, "%d %d %.12g\n", i+1, j+1, v)
		})
		if rowErr != nil {
			return rowErr
		}
	}
	return nil
}

// TransitionsCSV writes the labelled transition system as
// "from,action,rate,to" rows with a header, states identified by index.
func TransitionsCSV(w io.Writer, ss *derive.StateSpace) error {
	if _, err := fmt.Fprintln(w, "from,action,rate,to"); err != nil {
		return err
	}
	for s := range ss.States {
		for _, tr := range ss.Trans[s] {
			if _, err := fmt.Fprintf(w, "%d,%s,%.12g,%d\n", tr.From, tr.Action, tr.Rate, tr.To); err != nil {
				return err
			}
		}
	}
	return nil
}

// SteadyStateCSV writes "state,term,probability" rows: the bytes
// fmt's "%d,%q,%.12g\n" renders, built by strconv in one reused line
// buffer and written with one Write per row.
func SteadyStateCSV(w io.Writer, ss *derive.StateSpace, pi []float64) error {
	if len(pi) != ss.NumStates() {
		return fmt.Errorf("export: distribution length %d != %d states", len(pi), ss.NumStates())
	}
	if _, err := io.WriteString(w, "state,term,probability\n"); err != nil {
		return err
	}
	var line []byte
	for s, term := range ss.States {
		line = strconv.AppendInt(line[:0], int64(s), 10)
		line = append(line, ',')
		line = strconv.AppendQuote(line, term)
		line = append(line, ',')
		line = strconv.AppendFloat(line, pi[s], 'g', 12, 64)
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// CDFTSV writes a passage-time CDF as "t  P(T<=t)".
func CDFTSV(w io.Writer, cdf *ctmc.PassageCDF) error {
	if _, err := fmt.Fprintln(w, "t\tP(T<=t)"); err != nil {
		return err
	}
	for i := range cdf.Times {
		if _, err := fmt.Fprintf(w, "%.6g\t%.6g\n", cdf.Times[i], cdf.Probs[i]); err != nil {
			return err
		}
	}
	return nil
}

// ParseMatrixMarket reads back a Matrix Market generator written by
// GeneratorMatrixMarket (round-trip support for tests and pipelines).
// It returns the dimension and the triplet list.
func ParseMatrixMarket(r io.Reader) (n int, entries [][3]float64, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, nil, err
	}
	lines := strings.Split(string(data), "\n")
	headerSeen := false
	sizeSeen := false
	var rows, cols, nnz int
	for _, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "%") {
			if strings.HasPrefix(line, "%%MatrixMarket") {
				if !strings.Contains(line, "coordinate real general") {
					return 0, nil, fmt.Errorf("export: unsupported MatrixMarket header %q", line)
				}
				headerSeen = true
			}
			continue
		}
		if !headerSeen {
			return 0, nil, fmt.Errorf("export: missing MatrixMarket header")
		}
		if !sizeSeen {
			if _, err := fmt.Sscanf(line, "%d %d %d", &rows, &cols, &nnz); err != nil {
				return 0, nil, fmt.Errorf("export: bad size line %q: %w", line, err)
			}
			if rows != cols {
				return 0, nil, fmt.Errorf("export: non-square %dx%d matrix", rows, cols)
			}
			sizeSeen = true
			continue
		}
		var i, j int
		var v float64
		if _, err := fmt.Sscanf(line, "%d %d %g", &i, &j, &v); err != nil {
			return 0, nil, fmt.Errorf("export: bad entry %q: %w", line, err)
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return 0, nil, fmt.Errorf("export: entry (%d,%d) out of bounds", i, j)
		}
		entries = append(entries, [3]float64{float64(i - 1), float64(j - 1), v})
	}
	if !sizeSeen {
		return 0, nil, fmt.Errorf("export: missing size line")
	}
	if len(entries) != nnz {
		return 0, nil, fmt.Errorf("export: %d entries declared, %d found", nnz, len(entries))
	}
	return rows, entries, nil
}
