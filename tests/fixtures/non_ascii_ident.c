// MiniC source is ASCII outside comments and strings, so the identifier
// below is a named lex error (`é` is U+00E9), never a panic.
int café;

int main() { return 0; }
