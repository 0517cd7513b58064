#include "src/sql/lexer.h"

#include "src/common/string_util.h"

namespace gapply::sql {

namespace {

// ASCII classes, as the "C" locale defines them, without a libc call per
// byte.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsAlpha(char c) { return (c | 0x20) >= 'a' && (c | 0x20) <= 'z'; }

bool IsIdentStart(char c) { return IsAlpha(c) || c == '_'; }

bool IsIdentChar(char c) { return IsAlpha(c) || IsDigit(c) || c == '_'; }

}  // namespace

Result<std::vector<Token>> Lex(const std::string& input) {
  std::vector<Token> tokens;
  tokens.reserve(input.size() / 4 + 1);  // ~ one token per 4-6 bytes of SQL
  size_t i = 0;
  const size_t n = input.size();

  while (i < n) {
    const char c = input[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    const size_t start = i;

    if (IsIdentStart(c)) {
      while (i < n && IsIdentChar(input[i])) ++i;
      Token& token = tokens.emplace_back();
      token.type = TokenType::kIdentifier;
      token.raw.assign(input, start, i - start);
      token.text = ToLower(token.raw);
      token.position = start;
      continue;
    }
    if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(input[i + 1]))) {
      bool is_float = false;
      while (i < n && IsDigit(input[i])) ++i;
      if (i < n && input[i] == '.') {
        is_float = true;
        ++i;
        while (i < n && IsDigit(input[i])) ++i;
      }
      if (i < n && (input[i] == 'e' || input[i] == 'E')) {
        is_float = true;
        ++i;
        if (i < n && (input[i] == '+' || input[i] == '-')) ++i;
        while (i < n && IsDigit(input[i])) ++i;
      }
      const std::string raw = input.substr(start, i - start);
      tokens.push_back({is_float ? TokenType::kFloat : TokenType::kInteger,
                        raw, raw, start});
      continue;
    }
    if (c == '\'') {
      std::string value;
      ++i;
      bool closed = false;
      while (i < n) {
        if (input[i] == '\'') {
          if (i + 1 < n && input[i + 1] == '\'') {  // escaped quote
            value.push_back('\'');
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        value.push_back(input[i++]);
      }
      if (!closed) {
        return Status::InvalidArgument(
            "unterminated string literal at offset " +
            std::to_string(start));
      }
      tokens.push_back({TokenType::kString, value,
                        input.substr(start, i - start), start});
      continue;
    }

    // Multi-char operators first.
    auto symbol = [&](const std::string& sym) {
      tokens.push_back({TokenType::kSymbol, sym, sym, start});
      i += sym.size();
    };
    if (c == '<' && i + 1 < n && input[i + 1] == '>') {
      symbol("<>");
      continue;
    }
    if (c == '!' && i + 1 < n && input[i + 1] == '=') {
      tokens.push_back({TokenType::kSymbol, "<>", "!=", start});
      i += 2;
      continue;
    }
    if (c == '<' && i + 1 < n && input[i + 1] == '=') {
      symbol("<=");
      continue;
    }
    if (c == '>' && i + 1 < n && input[i + 1] == '=') {
      symbol(">=");
      continue;
    }
    switch (c) {
      case '(':
      case ')':
      case ',':
      case '.':
      case ';':
      case ':':
      case '*':
      case '+':
      case '-':
      case '/':
      case '%':
      case '=':
      case '<':
      case '>':
        symbol(std::string(1, c));
        continue;
      default:
        return Status::InvalidArgument("unexpected character '" +
                                       std::string(1, c) + "' at offset " +
                                       std::to_string(start));
    }
  }
  tokens.push_back({TokenType::kEnd, "", "", n});
  return tokens;
}

}  // namespace gapply::sql
