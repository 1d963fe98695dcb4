package server

// maxNestingDepth is how deeply arrays and objects may nest: encoding/json's
// limit, so that validJSON refuses exactly the documents json.Valid refuses.
const maxNestingDepth = 10000

// Byte classes, as bits of class[c].
const (
	cSpace = 1 << iota // SP, HT, LF, CR: the only whitespace JSON has
	cDigit             // 0-9
	cHex               // 0-9, a-f, A-F
	cStop              // ends a run of plain string bytes: '"', '\\' and every byte below 0x20
)

var class = func() (t [256]uint8) {
	for _, c := range []byte(" \t\n\r") {
		t[c] |= cSpace
	}
	for c := '0'; c <= '9'; c++ {
		t[c] |= cDigit | cHex
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] |= cHex
		t[c-'a'+'A'] |= cHex
	}
	for c := 0; c < 0x20; c++ {
		t[c] |= cStop
	}
	t['"'] |= cStop
	t['\\'] |= cStop
	return t
}()

// validJSON reports whether data is one JSON value with nothing but
// whitespace around it — exactly the language encoding/json.Valid accepts,
// in one pass over the bytes and without allocating. json.Valid steps its
// scanner through a state function per byte; here each token is a loop over
// a byte-class table. Like json.Valid it does not check that strings are
// UTF-8, and it refuses nesting deeper than maxNestingDepth.
func validJSON(data []byte) bool {
	// Bit d is set while the container open at depth d is an object; closer
	// is the byte that closes the innermost one.
	var objects [(maxNestingDepth + 63) / 64]uint64
	depth, closer := 0, byte(0)
	i := skipSpace(data, 0)
value:
	for {
		if i == len(data) {
			return false
		}
		switch data[i] {
		case '{':
			if depth == maxNestingDepth {
				return false
			}
			if i = skipSpace(data, i+1); i < len(data) && data[i] == '}' {
				i++
				break
			}
			objects[depth/64] |= 1 << (depth % 64)
			depth, closer = depth+1, '}'
			if i = member(data, i); i < 0 {
				return false
			}
			continue
		case '[':
			if depth == maxNestingDepth {
				return false
			}
			if i = skipSpace(data, i+1); i < len(data) && data[i] == ']' {
				i++
				break
			}
			objects[depth/64] &^= 1 << (depth % 64)
			depth, closer = depth+1, ']'
			continue
		case '"':
			i = stringEnd(data, i+1)
		case 't':
			i = literalEnd(data, i, "true")
		case 'f':
			i = literalEnd(data, i, "false")
		case 'n':
			i = literalEnd(data, i, "null")
		default:
			i = numberEnd(data, i)
		}
		if i < 0 {
			return false
		}
		// A value ended at i: close the containers it completes, up to the
		// next value.
		for {
			i = skipSpace(data, i)
			if depth == 0 {
				return i == len(data)
			}
			if i == len(data) {
				return false
			}
			switch data[i] {
			case ',':
				i = skipSpace(data, i+1)
				if closer == '}' {
					if i = member(data, i); i < 0 {
						return false
					}
				}
				continue value
			case closer:
				depth, closer, i = depth-1, ']', i+1
				if depth > 0 && objects[(depth-1)/64]>>((depth-1)%64)&1 != 0 {
					closer = '}'
				}
			default:
				return false
			}
		}
	}
}

// skipSpace returns the index of the first non-whitespace byte at or after i.
func skipSpace(data []byte, i int) int {
	for i < len(data) && class[data[i]]&cSpace != 0 {
		i++
	}
	return i
}

// member reads an object member's key and colon at data[i:], returning
// where its value starts, or -1.
func member(data []byte, i int) int {
	if i == len(data) || data[i] != '"' {
		return -1
	}
	if i = stringEnd(data, i+1); i < 0 {
		return -1
	}
	if i = skipSpace(data, i); i == len(data) || data[i] != ':' {
		return -1
	}
	return skipSpace(data, i+1)
}

// stringEnd returns the index just past the closing quote of the string
// whose contents start at data[i], or -1.
func stringEnd(data []byte, i int) int {
	for {
		// Four plain bytes a step while four are left: most of a reply's
		// bytes are inside strings.
		for len(data)-i >= 4 && (class[data[i]]|class[data[i+1]]|class[data[i+2]]|class[data[i+3]])&cStop == 0 {
			i += 4
		}
		for i < len(data) && class[data[i]]&cStop == 0 {
			i++
		}
		if i == len(data) {
			return -1
		}
		switch data[i] {
		case '"':
			return i + 1
		case '\\':
			if i+1 == len(data) {
				return -1
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if len(data)-i < 6 || class[data[i+2]]&class[data[i+3]]&class[data[i+4]]&class[data[i+5]]&cHex == 0 {
					return -1
				}
				i += 6
			default:
				return -1
			}
		default: // a control byte
			return -1
		}
	}
}

// literalEnd returns the index just past word at data[i:], or -1.
func literalEnd(data []byte, i int, word string) int {
	if len(data)-i < len(word) || string(data[i:i+len(word)]) != word {
		return -1
	}
	return i + len(word)
}

// numberEnd returns the index just past the number starting at data[i], or
// -1: an optional minus, then 0 or a run of digits not starting with 0, then
// an optional fraction and an optional exponent, each with at least one digit.
func numberEnd(data []byte, i int) int {
	if data[i] == '-' {
		if i++; i == len(data) {
			return -1
		}
	}
	switch c := data[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		i = digitsEnd(data, i+1)
	default:
		return -1
	}
	if i < len(data) && data[i] == '.' {
		if i++; i == len(data) || class[data[i]]&cDigit == 0 {
			return -1
		}
		i = digitsEnd(data, i+1)
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i == len(data) || class[data[i]]&cDigit == 0 {
			return -1
		}
		i = digitsEnd(data, i+1)
	}
	return i
}

// digitsEnd returns the index of the first non-digit at or after i.
func digitsEnd(data []byte, i int) int {
	for i < len(data) && class[data[i]]&cDigit != 0 {
		i++
	}
	return i
}
