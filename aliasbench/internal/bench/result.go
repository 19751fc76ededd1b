package bench

import (
	"encoding/json"
	"fmt"
)

// Metric is one named measurement of the result line.
type Metric struct {
	Name  string
	Unit  string
	Value float64
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// PrintResult prints the result line: the last line of standard output. It
// fails, printing nothing, when a metric is not a finite number.
func PrintResult(correct bool, attempted, failed int64, ms []Metric) error {
	out := resultJSON{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricJSON{}}
	for _, m := range ms {
		out.Metrics[m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("result line: %v", err)
	}
	fmt.Println(string(b))
	return nil
}
