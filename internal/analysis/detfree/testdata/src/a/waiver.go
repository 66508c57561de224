package a

import "time"

// justifiedWaiver: a directive on the line above, naming this analyzer
// with a substantive justification, waives the diagnostic.
func justifiedWaiver() time.Time {
	//nowlint:allow detfree -- host time feeds a reported metric only, never the simulation
	return time.Now()
}

// sameLineWaiver: the directive may also sit on the flagged line itself.
func sameLineWaiver() time.Time {
	return time.Now() //nowlint:allow detfree -- host time feeds a reported metric only
}

// shortReason: a justification under the minimum length does not waive;
// the diagnostic becomes a complaint about the directive.
func shortReason() time.Time {
	//nowlint:allow detfree -- timing
	return time.Now() // want `nowlint:allow detfree needs a substantive justification`
}

// noReason: a directive with no justification at all is reported alike.
func noReason() time.Time {
	//nowlint:allow detfree
	return time.Now() // want `needs a substantive justification \(-- why the invariant still holds\), got ""`
}

// otherAnalyzer: a directive naming another analyzer waives nothing here.
func otherAnalyzer() time.Time {
	//nowlint:allow lockorder -- this directive covers the lock-order check only
	return time.Now() // want `wall-clock read`
}

// twoLinesAbove: a directive covers its own line and the next one only.
func twoLinesAbove() time.Time {
	//nowlint:allow detfree -- host time feeds a reported metric only, never the simulation
	_ = 0
	return time.Now() // want `wall-clock read`
}
