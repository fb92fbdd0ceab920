package pepa

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

func strconvFormat(v float64) string {
	s := strconv.FormatFloat(v, 'f', -1, 64)
	if strings.ContainsAny(s, "eE") || !strings.Contains(s, ".") {
		// Keep integers and exponent forms as-is; trimFloat only strips a
		// fractional tail.
		return s + "."
	}
	return s
}

// TokenKind classifies lexical tokens of the PEPA concrete syntax.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokEquals   // =
	TokSemi     // ;
	TokLParen   // (
	TokRParen   // )
	TokComma    // ,
	TokDot      // .
	TokPlus     // +
	TokMinus    // -
	TokStar     // *
	TokSlash    // /
	TokLAngle   // <
	TokRAngle   // >
	TokLBrace   // {
	TokRBrace   // }
	TokParallel // ||
	TokPassive  // T or infty
	TokLBracket // [  (used by the GPEPA group syntax)
	TokRBracket // ]
	TokColon    // :  (used by the Bio-PEPA syntax)
	TokAt       // @  (used by the Bio-PEPA compartment syntax)
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "end of input"
	case TokIdent:
		return "identifier"
	case TokNumber:
		return "number"
	case TokEquals:
		return "'='"
	case TokSemi:
		return "';'"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokComma:
		return "','"
	case TokDot:
		return "'.'"
	case TokPlus:
		return "'+'"
	case TokMinus:
		return "'-'"
	case TokStar:
		return "'*'"
	case TokSlash:
		return "'/'"
	case TokLAngle:
		return "'<'"
	case TokRAngle:
		return "'>'"
	case TokLBrace:
		return "'{'"
	case TokRBrace:
		return "'}'"
	case TokParallel:
		return "'||'"
	case TokPassive:
		return "passive rate 'T'"
	case TokLBracket:
		return "'['"
	case TokRBracket:
		return "']'"
	case TokColon:
		return "':'"
	case TokAt:
		return "'@'"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

// Token is a lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Num  float64 // valid when Kind == TokNumber
	Line int
	Col  int
}

// SyntaxError is a lexing or parsing error with position information.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("pepa: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Lexer tokenizes PEPA source text. Comments run from "//" or "%" to end of
// line; "/*" ... "*/" block comments are also accepted.
type Lexer struct {
	src       []rune
	pos       int
	line, col int
}

// NewLexer creates a lexer over the source text.
func NewLexer(src string) *Lexer {
	return &Lexer{src: []rune(src), line: 1, col: 1}
}

func (l *Lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekAt(off int) rune {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *Lexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) errorf(format string, args ...any) error {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		r := l.peek()
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '%':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.peekAt(1) == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.peekAt(1) == '*':
			startLine, startCol := l.line, l.col
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return &SyntaxError{Line: startLine, Col: startCol, Msg: "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: l.line, Col: l.col}
	if l.pos >= len(l.src) {
		tok.Kind = TokEOF
		return tok, nil
	}
	r := l.peek()
	switch {
	case unicode.IsLetter(r) || r == '_':
		start := l.pos
		for l.pos < len(l.src) {
			c := l.peek()
			if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '\'' {
				l.advance()
			} else {
				break
			}
		}
		tok.Text = string(l.src[start:l.pos])
		if tok.Text == "T" || tok.Text == "infty" || tok.Text == "_tau" {
			if tok.Text == "_tau" {
				tok.Kind = TokIdent
				tok.Text = Tau
				return tok, nil
			}
			tok.Kind = TokPassive
			return tok, nil
		}
		tok.Kind = TokIdent
		return tok, nil
	case unicode.IsDigit(r):
		start := l.pos
		seenDot := false
		for l.pos < len(l.src) {
			c := l.peek()
			if unicode.IsDigit(c) {
				l.advance()
			} else if c == '.' && !seenDot && unicode.IsDigit(l.peekAt(1)) {
				seenDot = true
				l.advance()
			} else if (c == 'e' || c == 'E') && (unicode.IsDigit(l.peekAt(1)) || ((l.peekAt(1) == '+' || l.peekAt(1) == '-') && unicode.IsDigit(l.peekAt(2)))) {
				l.advance()
				if l.peek() == '+' || l.peek() == '-' {
					l.advance()
				}
			} else {
				break
			}
		}
		tok.Text = string(l.src[start:l.pos])
		v, err := strconv.ParseFloat(tok.Text, 64)
		if err != nil {
			return Token{}, l.errorf("bad number literal %q", tok.Text)
		}
		tok.Kind = TokNumber
		tok.Num = v
		return tok, nil
	}
	l.advance()
	switch r {
	case '=':
		tok.Kind = TokEquals
	case ';':
		tok.Kind = TokSemi
	case '(':
		tok.Kind = TokLParen
	case ')':
		tok.Kind = TokRParen
	case ',':
		tok.Kind = TokComma
	case '.':
		tok.Kind = TokDot
	case '+':
		tok.Kind = TokPlus
	case '-':
		tok.Kind = TokMinus
	case '*':
		tok.Kind = TokStar
	case '/':
		tok.Kind = TokSlash
	case '<':
		tok.Kind = TokLAngle
	case '>':
		tok.Kind = TokRAngle
	case '{':
		tok.Kind = TokLBrace
	case '}':
		tok.Kind = TokRBrace
	case '[':
		tok.Kind = TokLBracket
	case ']':
		tok.Kind = TokRBracket
	case ':':
		tok.Kind = TokColon
	case '@':
		tok.Kind = TokAt
	case '|':
		if l.peek() == '|' {
			l.advance()
			tok.Kind = TokParallel
		} else {
			return Token{}, l.errorf("unexpected character '|' (did you mean '||'?)")
		}
	default:
		return Token{}, l.errorf("unexpected character %q", string(r))
	}
	tok.Text = string(r)
	return tok, nil
}

// LexAll tokenizes the entire input, for tests and tools.
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	// Sized once from the source: the paper's models lex to 2.7–5.2
	// source bytes per token, so most fit and the densest grow once.
	toks := make([]Token, 0, len(src)/4+16)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
